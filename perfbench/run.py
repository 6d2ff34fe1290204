#!/usr/bin/env python3
"""Repository benchmark: builds the libraries and the nvffbench program from
source, runs one workload in a fresh per-run directory, checks the outputs
and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are a human-readable account of the run. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)

import metrics as m  # noqa: E402

WORKLOADS = ("mc-power-cycle", "paper-tables", "powerfail-checkpointed")
GOLDEN_TABLE2 = os.path.join("tests", "cell", "test_table2_golden.cpp")
RUN_TIMEOUT_S = 170
TAIL_REF_ROUNDS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def compute_threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


# --- build --------------------------------------------------------------------


def build(root, jobs):
    """Configures (once) and builds nvffbench; returns its path or None."""
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$", f.read(), re.M)
        if home is None or os.path.realpath(home.group(1)) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(build_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nvffbench", "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None, build_root
    return os.path.join(build_dir, "nvffbench"), build_root


# --- correctness ----------------------------------------------------------------


def parse_table2_golden(path):
    """(relative tolerance, {(design, corner): (energy, delay, leakage)})
    read from the Table II golden test, which is read and never edited."""
    with open(path) as f:
        text = f.read()
    tol = float(re.search(r"kRelTol\s*=\s*([0-9.eE+-]+)\s*;", text).group(1))
    rows = {}
    number = r"([0-9.eE+-]+)"
    row = r"\{Corner::(\w+),\s*" + r",\s*".join([number] * 3) + r"\}"
    for design, array in (("standard", "kStandardGolden"), ("proposed", "kProposedGolden")):
        body = re.search(array + r"\[\]\s*=\s*\{(.*?)\};", text, re.S).group(1)
        for corner, energy, delay, leakage in re.findall(row, body):
            rows[(design, corner.lower())] = (float(energy), float(delay), float(leakage))
    if len(rows) != 6:
        raise ValueError("expected 6 golden rows, found %d" % len(rows))
    return tol, rows


def check_paper_tables(raw, root, expected_dir):
    problems = []
    tol, golden = parse_table2_golden(os.path.join(root, GOLDEN_TABLE2))
    with open(os.path.join(expected_dir, "table3_pairs.json")) as f:
        pairs = json.load(f)
    seen_rows, seen_flows = set(), set()
    for res in raw["tables"]:
        kind, _, rest = res["op"].partition("/")
        if kind == "table2":
            design, corner = rest.split("/")
            seen_rows.add((design, corner))
            names = ("read energy", "read delay", "leakage")
            for name, got, want in zip(names, res["values"][:3], golden[(design, corner)]):
                if not abs(got - want) <= tol * abs(want):
                    problems.append("Table II %s %s %s: %.12e, golden %.12e"
                                    % (design, corner, name, got, want))
        elif kind == "flow":
            seen_flows.add(rest)
            got = int(res["values"][1]) if res["values"] else None
            if got != pairs.get(rest):
                problems.append("Table III %s: %s pairs, recorded %s" % (rest, got, pairs.get(rest)))
    if seen_rows != set(golden):
        problems.append("Table II rows missing: %s" % sorted(set(golden) - seen_rows))
    if seen_flows != set(pairs):
        problems.append("Table III flows missing: %s" % sorted(set(pairs) - seen_flows))
    return problems


def check_mc(raw, seed, expected_dir):
    with open(os.path.join(expected_dir, "mc_classes.json")) as f:
        expected = json.load(f)
    recorded = expected["classes"].get(str(seed))
    if recorded is None:
        print("mc classes: seed %d has no recorded classes; checked across phases only" % seed)
        return []
    got = raw["mc_classes"]
    if len(got) != len(recorded):
        return ["mc trial count %d differs from the recorded %d" % (len(got), len(recorded))]
    diff = [i for i, (a, b) in enumerate(zip(got, recorded)) if a != b]
    if diff:
        return ["mc outcome classes differ from the recorded ones at trials %s" % diff]
    return []


def check(raw, workload, seed, root, expected_dir):
    problems = ["check failed: " + k for k, ok in raw["checks"].items() if not ok]
    if "trace" in raw and not raw["trace"]["probe"]["converged"]:
        problems.append("the spice probe's transient did not converge")
    if workload == "paper-tables":
        problems += check_paper_tables(raw, root, expected_dir)
    elif workload == "mc-power-cycle":
        problems += check_mc(raw, seed, expected_dir)
    return problems


# --- metrics --------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    rounds = raw["rounds"]
    n = raw["threads"]
    rate = {}
    for phase in ("1t", "nt"):
        rate[phase] = m.median([r[phase]["trials"] / r[phase]["wall_s"] for r in rounds])
    latencies = []
    for r in rounds:
        latencies += m.latencies_from_completions(r["1t"]["completions_s"])
    latencies_ms = [1e3 * x for x in latencies]
    # The percentile is the one TAIL_REF_ROUNDS rounds qualify for, so it does
    # not change with how many rounds fit in the run; it is taken over all.
    ref = m.tail_percentile(range(TAIL_REF_ROUNDS * rounds[0]["1t"]["trials"]))
    tail = m.tail_percentile(latencies_ms, candidates=[
        p for p in m.TAIL_PERCENTILES if ref is None or p <= ref[0]])
    if tail is None:  # too few samples for any tail: report the slowest
        tail = (100.0, max(latencies_ms), 0)
    dist = raw["dist"]
    print("rounds: %d (metrics are medians over rounds); threads N = %d" % (len(rounds), n))
    for phase in ("1t", "nt"):
        rates = [r[phase]["trials"] / r[phase]["wall_s"] for r in rounds]
        if len(rates) >= 2:
            q1, q2, q3 = m.quartiles(rates)
            print("trials/s %s over rounds: q1 %.4f, median %.4f, q3 %.4f (spread %.3f)"
                  % (phase, q1, q2, q3, m.relative_spread(rates)))
    print("dist check phase: %d workers, %.4f s, %.1f trials/s" % (
        dist["threads"], dist["wall_s"], dist["trials"] / dist["wall_s"]))
    print("trial latency at 1 thread: %d samples, p50 %.4f ms, tail = p%g %.4f ms "
          "(%d samples beyond)" % (len(latencies_ms), m.median(latencies_ms), tail[0],
                                   tail[1], tail[2]))
    return {
        "setup_s": metric(m.median(raw["setup_s"]), "s"),
        "trials_per_s_1t": metric(rate["1t"], "1/s"),
        "trials_per_s_nt": metric(rate["nt"], "1/s"),
        "scaling_eff_nt": metric(m.scaling_efficiency(rate["nt"], rate["1t"], n), "1"),
        "trial_ms_p50": metric(m.median(latencies_ms), "ms"),
        "trial_ms_tail": metric(tail[1], "ms"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MiB"),
        "ok_frac": metric(1.0 - raw["failed"] / raw["attempted"], "1"),
    }


def per_layer(raw):
    trace = raw["trace"]
    probe = trace["probe"]
    spans = [dict(zip(("id", "parent", "name", "start", "end", "trial", "tag"), s))
             for s in trace["spans"]]
    by_id = {s["id"]: s for s in spans}
    selfs = m.self_times(spans)

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s

    def single_thread(s):
        r = root_of(s)
        return r["tag"] == "1t" or r["name"] == "bench.reference"

    def named(name, pred=lambda s: True):
        return [s for s in spans if s["name"] == name and pred(s)]

    def dur(s):
        return s["end"] - s["start"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    phases = {s["tag"]: s for s in named("runtime.run_supervised")}
    nt = phases["nt"]
    nt_children = [s for s in spans if s["parent"] == nt["id"]]
    busy = sum(dur(s) for s in nt_children if s["trial"] >= 0)
    checkpoint_nt = (sum(dur(s) for s in nt_children if s["name"] == "runtime.serialize")
                     + sum(dur(s) for s in named("runtime.commit_durable",
                                                 lambda s: s["tag"] == "nt")))

    steps, iters = probe["steps"], probe["newton_iterations"]
    passes = probe["replay_states"] * probe["replay_repeats"]
    us_per_iter = m.median(probe["solve_us"]) / probe["timed_solve_iterations"]
    lu_us = probe["replay_lu_us_total"] / probe["replay_lu_calls"]
    tape_us = probe["replay_tape_us_total"] / passes
    mosfet_us = probe["replay_mosfet_us_total"] / passes
    mtj_us = probe["replay_mtj_us_total"] / passes
    stamp_us = mosfet_us + mtj_us + probe["replay_other_nonlinear_us_total"] / passes
    tape_per_iter = tape_us * steps / iters

    def stage_ms(name, bench=None):
        return 1e3 * sum(dur(s) for s in named(name, single_thread)
                         if bench is None or s["tag"] == bench)

    table2 = sum(dur(s) for s in spans if single_thread(s)
                 and s["name"] in ("cell.standard_pair", "cell.proposed_2bit"))
    table3 = sum(dur(s) for s in spans if single_thread(s)
                 and s["name"] in ("core.run_flow", "core.nv_cells_measured"))
    round0 = raw["rounds"][0]
    untraced_1t = round0["1t"]["wall_s"]
    overhead = dur(phases["1t"]) - untraced_1t
    dist = raw["dist"]
    codec = trace.get("codec", {})

    out = {
        "spice.steps_per_solve": (steps, "count"),
        "spice.newton_iters_per_step": (iters / steps, "iter/step"),
        "spice.newton_iters_per_solve": (iters, "count"),
        "spice.gated_step_share": (probe["gated_steps"] / steps, "1"),
        "spice.us_per_newton_iter": (us_per_iter, "us"),
        "spice.lu_us": (lu_us, "us"),
        "spice.stamp_linear_tape_us": (tape_us, "us"),
        "spice.mosfet_stamp_us": (mosfet_us, "us"),
        "mtj.stamp_us": (mtj_us, "us"),
        "spice.dc_op_us": (m.median(probe["dc_op_us"]), "us"),
        "spice.lu_fast_solves": (probe["lu_fast_solves"], "count"),
        "spice.lu_dense_solves": (probe["lu_dense_solves"], "count"),
        "spice.lu_fill_slots": (probe["lu_fill_slots"], "count"),
        "spice.replay_lu_share": (lu_us / us_per_iter, "1"),
        "spice.replay_stamp_share": (stamp_us / us_per_iter, "1"),
        "spice.replay_tape_share": (tape_per_iter / us_per_iter, "1"),
        "cell.deck_compile_us": (m.median(probe["deck_compile_us"]), "us"),
        "cell.deck_patch_us": (m.median(probe["deck_patch_us"]), "us"),
        "reliability.newton_iters_per_trial": (mean(trace["mc_iterations_per_trial"]), "count"),
        "reliability.trial_ms": (1e3 * mean([selfs[s["id"]] for s in named(
            "reliability.run_trial", single_thread)]), "ms"),
        "runtime.serialize_ms": (1e3 * mean([dur(s) for s in named("runtime.serialize")]), "ms"),
        "runtime.commit_ms": (1e3 * mean([dur(s) for s in named("runtime.commit_durable")]), "ms"),
        "runtime.checkpoint_bytes": (trace.get("checkpoint_bytes", codec.get("checkpoint_bytes")),
                                     "B"),
        "runtime.commits": (len([s for s in nt_children if s["name"] == "runtime.serialize"]),
                            "count"),
        "runtime.resume_ms": (1e3 * mean([dur(s) for s in named("runtime.resume")]), "ms"),
        "runtime.idle_share": (m.idle_share(dur(nt), busy, raw["threads"]), "1"),
        "runtime.checkpoint_share_nt": (checkpoint_nt / dur(nt), "1"),
        "faults.build_context_ms": (1e3 * mean([dur(s) for s in named("faults.build_context")]),
                                    "ms"),
        "faults.trial_us": (1e6 * mean([selfs[s["id"]] for s in named(
            "faults.run_trial", single_thread)]), "us"),
        "core.table2_s": (table2, "s"),
        "core.table3_s": (table3, "s"),
        "bench_circuits.generate_ms": (stage_ms("bench_circuits.generate"), "ms"),
        "physdes.place_ms": (stage_ms("physdes.place"), "ms"),
        "pairing.pair_ms": (stage_ms("pairing.pair_flip_flops"), "ms"),
        "bench_circuits.generate_b19_ms": (stage_ms("bench_circuits.generate", "b19"), "ms"),
        "physdes.place_b19_ms": (stage_ms("physdes.place", "b19"), "ms"),
        "pairing.pair_b19_ms": (stage_ms("pairing.pair_flip_flops", "b19"), "ms"),
        "dist.redispatches": (dist["redispatches"], "count"),
        "dist.frames_rejected": (dist["frames_rejected"], "count"),
        "dist.workers_seen": (dist["workers_seen"], "count"),
        "dist.scaling_eff": (m.scaling_efficiency(
            dist["trials"] / dist["wall_s"], round0["1t"]["trials"] / untraced_1t,
            dist["threads"]), "1"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / untraced_1t, "1"),
    }

    print("spice probe (%s, dt %g s): %d steps, %d Newton iterations, LU fast/dense %d/%d, "
          "%d fill slots" % (probe["deck"], probe["dt"], steps, iters, probe["lu_fast_solves"],
                             probe["lu_dense_solves"], probe["lu_fill_slots"]))
    print("isolated replay per Newton iteration (%.3f us in situ): LU %.3f us (%.1f %%), "
          "stamping %.3f us (%.1f %%), tape refresh %.3f us (%.1f %%), rest %.1f %%"
          % (us_per_iter, lu_us, 100 * lu_us / us_per_iter, stamp_us,
             100 * stamp_us / us_per_iter, tape_per_iter, 100 * tape_per_iter / us_per_iter,
             100 * (1 - (lu_us + stamp_us + tape_per_iter) / us_per_iter)))
    print("N-thread phase: wall %.4f s, checkpoint serialize+commit %.1f %% of wall, "
          "idle share %.3f" % (dur(nt), 100 * checkpoint_nt / dur(nt),
                               out["runtime.idle_share"][0]))
    print("tracing overhead (traced - untraced 1-thread phase): %+.4f s (%+.2f %%)"
          % (overhead, 100 * overhead / untraced_1t))
    print("self time by layer [s]: " + ", ".join(
        "%s %.4f" % kv for kv in sorted(m.self_time_by_layer(spans).items())))
    return {k: metric(v, u) for k, (v, u) in out.items()}


# --- main -----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--expected-dir", default=os.path.join(BENCH_DIR, "expected"),
                   help="recorded expected outputs (default: perfbench/expected)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    threads = compute_threads()
    binary, build_root = build(root, threads)
    if binary is None:
        return 1
    run_dir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads)]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            log("perfbench: %s did not finish (%s)" % (
                args.workload, "timeout" if proc is None else "exit %d" % proc.returncode))
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        print("workload %s, seed %d, %.1f s in nvffbench"
              % (args.workload, args.seed, time.monotonic() - started))
        problems = check(raw, args.workload, args.seed, root, args.expected_dir)
        for p in problems:
            print("INCORRECT: " + p)
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
        result = {"correct": not problems, "attempted": raw["attempted"],
                  "failed": raw["failed"], "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
