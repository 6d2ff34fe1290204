"""Arithmetic of the benchmark: medians, quartiles, the tail-percentile
rule, scaling efficiencies and span self time.

Everything here is a pure function of plain numbers so that it can be
tested on its own (tests/test_metrics.py).
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def tail_percentile(samples, min_beyond=MIN_BEYOND, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile that has at least `min_beyond`
    samples beyond it.

    A percentile p takes the nearest-rank sample: rank ceil(p/100 * n)
    (1-based) of the sorted samples; the samples beyond it are the n - rank
    larger ranks. Returns (p, value, samples_beyond), or None when even the
    lowest candidate has fewer than `min_beyond` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in candidates:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= min_beyond:
            return p, ordered[rank - 1], n - rank
    return None


def latencies_from_completions(completions):
    """Per-trial latency from completion times of a one-thread run whose
    clock starts at 0: the gap before each completion."""
    gaps = []
    previous = 0.0
    for t in completions:
        gaps.append(t - previous)
        previous = t
    return gaps


def scaling_efficiency(rate, base_rate, workers):
    """rate / (workers * base_rate): 1.0 is perfect scaling."""
    return rate / (workers * base_rate)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. Children may nest further and may
    overlap each other (parallel trials); each covered instant counts once,
    and child time outside the parent's interval is ignored.

    `spans` are dicts with id, parent, start and end. Returns {id: seconds}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_layer(spans):
    """Sum of span self time per layer, the layer being the span name's
    prefix before the first dot."""
    selfs = self_times(spans)
    layers = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[s["id"]]
    return layers


def idle_share(phase_wall, busy, threads):
    """1 - busy / (wall * threads): the share of a phase's thread time that
    no trial used."""
    return 1.0 - busy / (phase_wall * threads)
