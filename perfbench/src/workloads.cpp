#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cell/multibit_latch.hpp"
#include "cell/standard_latch.hpp"
#include "dist/coordinator.hpp"
#include "dist/engine.hpp"
#include "dist/worker.hpp"
#include "faults/powerfail.hpp"
#include "reliability/checkpoint.hpp"
#include "reliability/montecarlo.hpp"
#include "runtime/durable_file.hpp"
#include "runtime/supervisor.hpp"
#include "spice_probe.hpp"
#include "tables_engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace nvff;
namespace fs = std::filesystem;

// Trials per phase. mc: 16 long power-cycle trials (~0.25 s each at one
// thread); power-fail: 1024 short trials, enough finished records that the
// checkpoint payload, serialized whole at every commit, grows to ~0.7 MB.
constexpr int kMcTrials = 16;
constexpr int kPowerfailTrials = 1024;
constexpr int kCheckpointEvery = 16; // the CLI's default cadence
constexpr int kSetupRepeats = 21;
constexpr int kDistWorkers = 2; // fewer when N is smaller
// Dist shard sizes: the CLI default (8) for mc; one op per shard for the
// uneven paper-tables ops; 64 for power-fail, whose 1 ms trials would
// otherwise spend the phase in per-shard round trips.
constexpr int kMcShardSize = 8;
constexpr int kTablesShardSize = 1;
constexpr int kPowerfailShardSize = 64;
constexpr int kReferenceFaultTrials = 64;
constexpr int kReferenceMcTrials = 2;

std::string fresh_dir(const std::string& name) {
  fs::remove_all(name);
  fs::create_directories(name);
  return name;
}

/// Runs `round(r)` until the measuring time is spent (at least once). A
/// traced run makes exactly one untraced round.
template <class F>
std::vector<JsonObj> rounds_until(const RunContext& ctx, F round) {
  std::vector<JsonObj> out;
  const double t0 = now_s();
  do {
    out.push_back(round(static_cast<int>(out.size())));
  } while (!ctx.traced && now_s() - t0 < ctx.seconds);
  return out;
}

JsonObj phase_json(int threads, int trials, double wall,
                   const std::vector<double>& completions = {}) {
  JsonObj p;
  p.integer("threads", threads).integer("trials", trials).num("wall_s", wall);
  if (!completions.empty()) p.nums("completions_s", completions);
  return p;
}

/// Setup repeated kSetupRepeats times; returns each wall time [s].
template <class F>
std::vector<double> timed_setups(F setup) {
  std::vector<double> walls;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    setup();
    walls.push_back(now_s() - t0);
  }
  return walls;
}

// --- distributed phase -------------------------------------------------------

struct DistRun {
  int workers = 0;
  double wall = 0.0;
  dist::ServeOutcome outcome;
};

/// Coordinator on a unix socket in the run directory plus min(kDistWorkers,
/// maxThreads) in-process workers of one trial thread each. The timed interval starts
/// before the coordinator's engine is built, as `nvfftool serve` pays it.
DistRun run_dist(const std::function<std::unique_ptr<dist::CampaignEngine>()>& make,
                 int maxThreads, const std::string& socket, int shardSize,
                 const std::string& checkpointPath) {
  const int workerCount = std::min(kDistWorkers, maxThreads);
  fs::remove(socket);
  dist::ServeOptions so;
  so.endpoint = "unix:" + socket;
  so.shardSize = shardSize;
  so.checkpointPath = checkpointPath;
  so.checkpointEvery = 1; // commit after every merged shard
  std::vector<std::thread> workers;
  so.onListening = [&](const dist::Endpoint& ep) {
    const std::string where = ep.to_string();
    for (int w = 0; w < workerCount; ++w) {
      workers.emplace_back([where] {
        dist::WorkerOptions wo;
        wo.endpoint = where;
        wo.threads = 1;
        wo.reconnectBudgetSeconds = 5.0;
        try {
          dist::run_worker(wo);
        } catch (const std::exception&) {
          // A worker that dies shows as a missing result in the outcome.
        }
      });
    }
  };
  DistRun r;
  r.workers = workerCount;
  const double t0 = now_s();
  try {
    const std::unique_ptr<dist::CampaignEngine> engine = make();
    r.outcome = dist::serve_campaign(*engine, so);
  } catch (...) {
    for (std::thread& t : workers) t.join();
    throw;
  }
  r.wall = now_s() - t0;
  for (std::thread& t : workers) t.join();
  fs::remove(socket);
  return r;
}

JsonObj dist_json(const DistRun& d, int trials) {
  JsonObj p = phase_json(d.workers, trials, d.wall);
  p.boolean("completed", d.outcome.completed())
      .integer("redispatches", d.outcome.redispatches)
      .integer("frames_rejected", d.outcome.framesRejected)
      .integer("workers_seen", d.outcome.workersSeen);
  return p;
}

/// Failures the dist phase adds: its trials match the one-thread phase when
/// the merged report is identical; otherwise every trial counts as failed.
long dist_failures(const DistRun& d, const std::string& reference, long referenceFailed,
                   int trials) {
  return d.outcome.completed() && d.outcome.report == reference ? referenceFailed
                                                                 : trials;
}

/// Every recorded span as [id, parent, name, start, end, trial, tag].
std::string spans_json() {
  std::string arr = "[";
  bool first = true;
  for (const SpanRecord& s : tracer().spans()) {
    if (!first) arr += ',';
    first = false;
    arr += '[' + std::to_string(s.id) + ',' + std::to_string(s.parent) + ',';
    json::append_escaped(arr, s.name);
    arr += ',' + json::num(s.start) + ',' + json::num(s.end) + ',' +
           std::to_string(s.trial) + ',';
    json::append_escaped(arr, s.tag);
    arr += ']';
  }
  return arr + "]";
}

/// Serializes, durably commits and resumes one payload: the checkpoint path
/// for workloads whose timed phases do not checkpoint.
JsonObj closing_codec_pass(const std::function<std::string()>& serialize,
                           const std::function<std::vector<int>(const std::string&)>& load) {
  std::string payload;
  {
    Span s("runtime.serialize", -1, "closing");
    payload = serialize();
  }
  const std::string path = fresh_dir("codec") + "/ckpt.json";
  {
    Span s("runtime.commit_durable", -1, "closing");
    runtime::commit_durable(path, payload);
  }
  {
    Span s("runtime.resume", -1, "closing");
    runtime::resume_from_checkpoint(path, load);
  }
  JsonObj o;
  o.integer("checkpoint_bytes", static_cast<long>(payload.size()));
  return o;
}

runtime::SupervisorOutcome engine_phase(dist::CampaignEngine& engine, int threads,
                                        std::vector<double>* completions) {
  runtime::SupervisorConfig sup;
  sup.trials = engine.trials();
  sup.threads = threads;
  const double t0 = now_s();
  if (completions != nullptr)
    sup.progress = [&](int, int) { completions->push_back(now_s() - t0); };
  runtime::CampaignHooks hooks;
  hooks.runTrial = [&](int t, const CancelToken& cancel) {
    return engine.run_trial(t, cancel);
  };
  return runtime::run_supervised(sup, hooks);
}

// --- layers a workload does not call: one fixed reference call each ---------

void reference_tables() {
  Span ref("bench.reference", -1, "tables");
  TablesEngine engine(TablesEngine::paper_ops());
  engine.enable_tracing(ref.id());
  const CancelToken token;
  for (int i = 0; i < engine.trials(); ++i) engine.run_trial(i, token);
}

void reference_faults(std::uint64_t seed) {
  Span ref("bench.reference", -1, "faults");
  faults::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.trials = kReferenceFaultTrials;
  const faults::CampaignContext context = [&] {
    Span s("faults.build_context", -1, cfg.benchmark);
    return faults::build_context(cfg);
  }();
  for (int t = 0; t < cfg.trials; ++t) {
    Span s("faults.run_trial", t);
    faults::run_trial(context, t);
  }
}

std::vector<double> reference_mc(std::uint64_t seed) {
  Span ref("bench.reference", -1, "mc");
  reliability::CampaignConfig cfg;
  cfg.seed = seed;
  cfg.trials = kReferenceMcTrials;
  std::vector<double> iterations;
  for (int t = 0; t < cfg.trials; ++t) {
    Span s("reliability.run_trial", t);
    const reliability::TrialResult r = reliability::run_trial(cfg, t);
    iterations.push_back(static_cast<double>(r.standard.iterations + r.proposed.iterations));
  }
  return iterations;
}

JsonObj finish(JsonObj doc, long attempted, long failed, const JsonObj& checks,
               bool allIdentical) {
  JsonObj c = checks;
  c.boolean("reports_identical", allIdentical);
  doc.integer("attempted", attempted).integer("failed", failed).obj("checks", c);
  return doc;
}

// --- mc-power-cycle ------------------------------------------------------------

bool mc_design_failed(const reliability::DesignTrialResult& d) {
  return d.outcome == reliability::TrialOutcome::Unclassified ||
         d.outcome == reliability::TrialOutcome::SolverFailure ||
         d.solveStatus == spice::SolveStatus::Cancelled;
}

long mc_failures(const reliability::CampaignRun& run) {
  long failed = run.supervisor.trialsTotal - run.supervisor.trialsDone;
  for (const reliability::TrialResult& t : run.result.trials)
    if (mc_design_failed(t.standard) || mc_design_failed(t.proposed)) ++failed;
  return failed;
}

struct McPhase {
  reliability::CampaignRun run;
  double wall = 0.0;
  std::vector<double> completions;
};

McPhase mc_phase(reliability::CampaignConfig cfg, int threads) {
  cfg.threads = threads;
  McPhase p;
  const double t0 = now_s();
  reliability::ProgressFn progress;
  if (threads == 1) progress = [&](int, int) { p.completions.push_back(now_s() - t0); };
  p.run = reliability::run_campaign_supervised(cfg, runtime::RunOptions{}, progress);
  p.wall = now_s() - t0;
  return p;
}

/// reliability::run_campaign_supervised with the benchmark's own hooks, so
/// every run_trial call gets a span. Hook logic mirrors the engine's.
reliability::CampaignResult traced_mc_phase(reliability::CampaignConfig cfg,
                                            int threads, const char* tag) {
  cfg.threads = threads;
  reliability::CampaignResult result;
  result.config = cfg;
  result.trials.resize(static_cast<std::size_t>(cfg.trials));
  Span phase("runtime.run_supervised", -1, tag);
  runtime::SupervisorConfig sup;
  sup.trials = cfg.trials;
  sup.threads = threads;
  runtime::CampaignHooks hooks;
  hooks.runTrial = [&](int t, const CancelToken& cancel) {
    Span s("reliability.run_trial", t, "", phase.id());
    reliability::TrialResult r = reliability::run_trial(cfg, t, &cancel);
    const bool cancelledSeen = r.standard.solveStatus == spice::SolveStatus::Cancelled ||
                               r.proposed.solveStatus == spice::SolveStatus::Cancelled;
    auto& slot = result.trials[static_cast<std::size_t>(t)];
    slot = std::move(r);
    if (cancelledSeen)
      return cancel.reason() == CancelToken::Reason::Timeout
                 ? runtime::TrialStatus::Timeout
                 : runtime::TrialStatus::Cancelled;
    if (slot.standard.outcome == reliability::TrialOutcome::Unclassified ||
        slot.proposed.outcome == reliability::TrialOutcome::Unclassified)
      return runtime::TrialStatus::Transient;
    return runtime::TrialStatus::Ok;
  };
  runtime::run_supervised(sup, hooks);
  return result;
}

/// The Table II read decks a Characterizer compiles on first use.
void build_table2_decks() {
  const cell::Technology tech = cell::Technology::table1();
  const cell::TechCorner corner = tech.read_corner(cell::Corner::Typical);
  cell::StandardReadDeck standard(tech, corner, cell::ReadTiming{});
  for (int v = 0; v < 4; ++v)
    cell::MultibitReadDeck deck(tech, corner, (v & 1) != 0, (v & 2) != 0,
                                cell::TwoBitReadTiming{});
}

/// The six power-cycle decks each campaign worker thread compiles.
void build_mc_decks() {
  const cell::Technology tech = cell::Technology::table1();
  const cell::TechCorner corner = tech.read_corner(cell::Corner::Typical);
  const cell::PowerCycleTiming timing{};
  for (int d = 0; d < 2; ++d) cell::StandardPowerCycleDeck deck(tech, corner, d == 1, timing);
  for (int v = 0; v < 4; ++v)
    cell::MultibitPowerCycleDeck deck(tech, corner, (v & 1) != 0, (v & 2) != 0, timing);
}

// --- powerfail-checkpointed ------------------------------------------------------

long pf_failures(const faults::CampaignRun& run) {
  long failed = run.supervisor.trialsTotal - run.supervisor.trialsDone;
  for (const faults::TrialResult& t : run.result.trials)
    if (t.timedOut) ++failed;
  return failed;
}

struct PfPhase {
  faults::CampaignRun run;
  double wall = 0.0;
  std::vector<double> completions;
};

PfPhase pf_phase(faults::CampaignConfig cfg, int threads, const std::string& checkpoint,
                 bool resume) {
  cfg.threads = threads;
  runtime::RunOptions ro;
  ro.checkpointPath = checkpoint;
  ro.checkpointEvery = kCheckpointEvery;
  ro.requireResume = resume;
  PfPhase p;
  const double t0 = now_s();
  faults::ProgressFn progress;
  if (threads == 1 && !resume)
    progress = [&](int, int) { p.completions.push_back(now_s() - t0); };
  p.run = faults::run_campaign_supervised(cfg, ro, progress);
  p.wall = now_s() - t0;
  return p;
}

std::function<std::vector<int>(const std::string&)> pf_loader(
    const faults::CampaignConfig& cfg, std::vector<faults::TrialResult>& slots) {
  return [&cfg, &slots](const std::string& payload) {
    faults::PowerfailCheckpoint loaded = faults::parse_powerfail_checkpoint(payload);
    faults::validate_powerfail_checkpoint(cfg, loaded.config);
    std::vector<int> ids;
    for (faults::TrialResult& t : loaded.trials) {
      if (t.trialId < 0 || t.trialId >= cfg.trials) continue;
      ids.push_back(t.trialId);
      slots[static_cast<std::size_t>(t.trialId)] = std::move(t);
    }
    return ids;
  };
}

/// faults::run_campaign_supervised with the benchmark's own hooks: spans
/// around build_context, every run_trial and every serialize. The payloads
/// are kept so each can be committed again, timed, after the phase (the
/// supervisor's own commit happens where the benchmark cannot see it).
faults::CampaignResult traced_pf_phase(faults::CampaignConfig cfg, int threads,
                                       const std::string& tag,
                                       const std::string& checkpoint) {
  cfg.threads = threads;
  faults::CampaignResult result;
  result.config = cfg;
  result.trials.resize(static_cast<std::size_t>(cfg.trials));
  std::vector<std::string> payloads;
  {
    Span phase("runtime.run_supervised", -1, tag);
    const faults::CampaignContext context = [&] {
      Span s("faults.build_context", -1, cfg.benchmark);
      return faults::build_context(cfg);
    }();
    runtime::SupervisorConfig sup;
    sup.trials = cfg.trials;
    sup.threads = threads;
    sup.run.checkpointPath = checkpoint;
    sup.run.checkpointEvery = kCheckpointEvery;
    runtime::CampaignHooks hooks;
    hooks.runTrial = [&](int t, const CancelToken& cancel) {
      Span s("faults.run_trial", t, "", phase.id());
      faults::TrialResult r = faults::run_trial(context, t, &cancel);
      if (!r.timedOut && cancel.cancelled() &&
          cancel.reason() == CancelToken::Reason::Cancelled)
        return runtime::TrialStatus::Cancelled;
      const bool timedOut = r.timedOut;
      result.trials[static_cast<std::size_t>(t)] = std::move(r);
      return timedOut ? runtime::TrialStatus::Timeout : runtime::TrialStatus::Ok;
    };
    hooks.serialize = [&](const std::vector<int>& ids) {
      Span s("runtime.serialize", -1, tag, phase.id());
      std::vector<faults::TrialResult> finished;
      finished.reserve(ids.size());
      for (const int id : ids) finished.push_back(result.trials[static_cast<std::size_t>(id)]);
      std::string payload = faults::serialize_powerfail_checkpoint(cfg, finished);
      payloads.push_back(payload);
      return payload;
    };
    hooks.deserialize = pf_loader(cfg, result.trials);
    runtime::run_supervised(sup, hooks);
  }
  const std::string probe = fresh_dir("commit-" + tag) + "/ckpt.json";
  for (const std::string& payload : payloads) {
    Span s("runtime.commit_durable", -1, tag);
    runtime::commit_durable(probe, payload);
  }
  return result;
}

std::vector<std::string> mc_classes(const reliability::CampaignResult& result) {
  std::vector<std::string> classes;
  for (const reliability::TrialResult& t : result.trials)
    classes.push_back(std::string(reliability::outcome_name(t.standard.outcome)) + "/" +
                      reliability::outcome_name(t.proposed.outcome));
  return classes;
}

} // namespace

JsonObj record_mc_classes(std::uint64_t first, std::uint64_t last, int threads) {
  reliability::CampaignConfig cfg;
  cfg.trials = kMcTrials;
  cfg.threads = threads;
  JsonObj classes;
  for (std::uint64_t seed = first;; ++seed) {
    cfg.seed = seed;
    classes.strs(std::to_string(seed),
                 mc_classes(reliability::run_campaign_supervised(cfg, {}).result));
    if (seed == last) break;
  }
  JsonObj doc;
  doc.integer("trials", kMcTrials).obj("classes", classes);
  return doc;
}

JsonObj run_mc_power_cycle(const RunContext& ctx) {
  reliability::CampaignConfig cfg;
  cfg.trials = kMcTrials;
  cfg.seed = ctx.seed;

  JsonObj doc;
  doc.nums("setup_s", timed_setups(build_mc_decks));

  long attempted = 0, failed = 0;
  bool identical = true;
  std::string reference;
  std::vector<std::string> classes;
  std::vector<double> iterations;
  long oneFailed = 0;
  const std::vector<JsonObj> rounds = rounds_until(ctx, [&](int r) {
    const McPhase one = mc_phase(cfg, 1);
    const std::string report = reliability::render_report(one.run.result);
    if (r == 0) {
      reference = report;
      classes = mc_classes(one.run.result);
      for (const reliability::TrialResult& t : one.run.result.trials)
        iterations.push_back(
            static_cast<double>(t.standard.iterations + t.proposed.iterations));
      oneFailed = mc_failures(one.run);
    }
    const McPhase many = mc_phase(cfg, ctx.threads);
    identical = identical && report == reference &&
                reliability::render_report(many.run.result) == reference;
    attempted += 2L * cfg.trials;
    failed += mc_failures(one.run) + mc_failures(many.run);
    JsonObj round;
    round.obj("1t", phase_json(1, cfg.trials, one.wall, one.completions))
        .obj("nt", phase_json(ctx.threads, cfg.trials, many.wall));
    return round;
  });
  const DistRun d =
      run_dist([&] { return dist::make_mc_engine(cfg); }, ctx.threads, "dist.sock",
               kMcShardSize, "");
  identical = identical && d.outcome.completed() && d.outcome.report == reference;
  attempted += cfg.trials;
  failed += dist_failures(d, reference, oneFailed, cfg.trials);
  doc.objs("rounds", rounds).obj("dist", dist_json(d, cfg.trials)).strs("mc_classes", classes);

  if (ctx.traced) {
    JsonObj trace;
    reliability::CampaignResult last;
    for (const int threads : {1, ctx.threads}) {
      last = traced_mc_phase(cfg, threads, threads == 1 ? "1t" : "nt");
      identical = identical && reliability::render_report(last) == reference;
    }
    trace.obj("codec", closing_codec_pass(
                           [&] { return reliability::serialize_checkpoint(cfg, last.trials); },
                           [&](const std::string& payload) {
                             reliability::CheckpointData data =
                                 reliability::parse_checkpoint(payload);
                             reliability::validate_checkpoint(cfg, data.config);
                             std::vector<int> ids;
                             for (const auto& t : data.trials) ids.push_back(t.trialId);
                             return ids;
                           }));
    trace.obj("probe", run_spice_probe(ProbeDeck::PowerCycle));
    trace.nums("mc_iterations_per_trial", iterations);
    reference_faults(ctx.seed);
    reference_tables();
    trace.raw("spans", spans_json());
    doc.obj("trace", trace);
  }
  return finish(std::move(doc), attempted, failed, JsonObj{}, identical);
}

JsonObj run_powerfail_checkpointed(const RunContext& ctx) {
  faults::CampaignConfig cfg;
  cfg.trials = kPowerfailTrials;
  cfg.seed = ctx.seed;

  JsonObj doc;
  doc.nums("setup_s", timed_setups([&] { faults::build_context(cfg); }));

  long attempted = 0, failed = 0;
  bool identical = true;
  bool resumedAll = true;
  std::string reference;
  long oneFailed = 0;
  const std::vector<JsonObj> rounds = rounds_until(ctx, [&](int r) {
    const std::string oneCkpt = fresh_dir("ckpt-1t") + "/ckpt.json";
    const PfPhase one = pf_phase(cfg, 1, oneCkpt, false);
    const std::string report = faults::render_report(one.run.result);
    if (r == 0) {
      reference = report;
      oneFailed = pf_failures(one.run);
    }
    const PfPhase many = pf_phase(cfg, ctx.threads, fresh_dir("ckpt-nt") + "/ckpt.json", false);
    const PfPhase resumed = pf_phase(cfg, 1, oneCkpt, true);
    identical = identical && report == reference &&
                faults::render_report(many.run.result) == reference &&
                faults::render_report(resumed.run.result) == reference;
    resumedAll = resumedAll && resumed.run.supervisor.trialsResumed == cfg.trials;
    attempted += 2L * cfg.trials;
    failed += pf_failures(one.run) + pf_failures(many.run);
    JsonObj round;
    round.obj("1t", phase_json(1, cfg.trials, one.wall, one.completions))
        .obj("nt", phase_json(ctx.threads, cfg.trials, many.wall))
        .obj("resume", phase_json(1, cfg.trials, resumed.wall));
    return round;
  });
  const DistRun d = run_dist([&] { return dist::make_powerfail_engine(cfg); }, ctx.threads,
                             "dist.sock", kPowerfailShardSize,
                             fresh_dir("ckpt-dist") + "/ckpt.json");
  identical = identical && d.outcome.completed() && d.outcome.report == reference;
  attempted += cfg.trials;
  failed += dist_failures(d, reference, oneFailed, cfg.trials);
  doc.objs("rounds", rounds).obj("dist", dist_json(d, cfg.trials));

  if (ctx.traced) {
    JsonObj trace;
    std::string oneCkpt;
    for (const int threads : {1, ctx.threads}) {
      const std::string tag = threads == 1 ? "1t" : "nt";
      const std::string ckpt = fresh_dir("traced-" + tag) + "/ckpt.json";
      if (threads == 1) oneCkpt = ckpt;
      const faults::CampaignResult result = traced_pf_phase(cfg, threads, tag, ckpt);
      identical = identical && faults::render_report(result) == reference;
    }
    faults::CampaignResult resumed;
    resumed.config = cfg;
    resumed.trials.resize(static_cast<std::size_t>(cfg.trials));
    runtime::ResumeResult rr;
    {
      Span s("runtime.resume", -1, "1t");
      rr = runtime::resume_from_checkpoint(oneCkpt, pf_loader(cfg, resumed.trials));
    }
    resumedAll = resumedAll && rr.ids.size() == static_cast<std::size_t>(cfg.trials);
    identical = identical && faults::render_report(resumed) == reference;
    trace.integer("checkpoint_bytes",
                  static_cast<long>(
                      faults::serialize_powerfail_checkpoint(cfg, resumed.trials).size()));
    trace.obj("probe", run_spice_probe(ProbeDeck::PowerCycle));
    trace.nums("mc_iterations_per_trial", reference_mc(ctx.seed));
    reference_tables();
    trace.raw("spans", spans_json());
    doc.obj("trace", trace);
  }
  JsonObj checks;
  checks.boolean("resume_restored_every_trial", resumedAll);
  return finish(std::move(doc), attempted, failed, checks, identical);
}

JsonObj run_paper_tables(const RunContext& ctx) {
  TablesEngine::register_factory();
  const std::vector<std::string> ops = TablesEngine::paper_ops();
  const int trials = static_cast<int>(ops.size());

  JsonObj doc;
  doc.nums("setup_s", timed_setups([&] {
    TablesEngine engine(TablesEngine::paper_ops());
    build_table2_decks();
  }));

  long attempted = 0, failed = 0;
  bool identical = true;
  std::string reference;
  long oneFailed = 0;
  std::vector<JsonObj> results;
  auto failures = [](const TablesEngine& e, const runtime::SupervisorOutcome& out) {
    long n = out.trialsTotal - out.trialsDone;
    for (int i = 0; i < e.trials(); ++i) n += e.ok(i) ? 0 : 1;
    return n;
  };
  const std::vector<JsonObj> rounds = rounds_until(ctx, [&](int r) {
    TablesEngine one(ops);
    std::vector<double> completions;
    const double t0 = now_s();
    const runtime::SupervisorOutcome oneOut = engine_phase(one, 1, &completions);
    const double oneWall = now_s() - t0;
    const std::string report = one.report();
    if (r == 0) {
      reference = report;
      oneFailed = failures(one, oneOut);
      for (int i = 0; i < trials; ++i) {
        JsonObj res;
        res.str("op", one.op(i)).boolean("ok", one.ok(i)).nums("values", one.values(i));
        results.push_back(res);
      }
    }
    TablesEngine many(ops);
    const double t1 = now_s();
    const runtime::SupervisorOutcome manyOut = engine_phase(many, ctx.threads, nullptr);
    const double manyWall = now_s() - t1;
    identical = identical && report == reference && many.report() == reference;
    attempted += 2L * trials;
    failed += failures(one, oneOut) + failures(many, manyOut);
    JsonObj round;
    round.obj("1t", phase_json(1, trials, oneWall, completions))
        .obj("nt", phase_json(ctx.threads, trials, manyWall));
    return round;
  });
  const DistRun d = run_dist([&] { return std::make_unique<TablesEngine>(ops); }, ctx.threads,
                             "dist.sock", kTablesShardSize, "");
  identical = identical && d.outcome.completed() && d.outcome.report == reference;
  attempted += trials;
  failed += dist_failures(d, reference, oneFailed, trials);
  doc.objs("rounds", rounds).obj("dist", dist_json(d, trials)).objs("tables", results);

  if (ctx.traced) {
    JsonObj trace;
    std::unique_ptr<TablesEngine> last;
    for (const int threads : {1, ctx.threads}) {
      last = std::make_unique<TablesEngine>(ops);
      Span phase("runtime.run_supervised", -1, threads == 1 ? "1t" : "nt");
      last->enable_tracing(phase.id());
      engine_phase(*last, threads, nullptr);
      identical = identical && last->report() == reference;
    }
    TablesEngine loaded(ops);
    std::vector<int> all(static_cast<std::size_t>(trials));
    for (int i = 0; i < trials; ++i) all[static_cast<std::size_t>(i)] = i;
    trace.obj("codec", closing_codec_pass([&] { return last->serialize(all); },
                                          [&](const std::string& payload) {
                                            return loaded.merge(payload);
                                          }));
    identical = identical && loaded.report() == reference;
    trace.obj("probe", run_spice_probe(ProbeDeck::Read));
    trace.nums("mc_iterations_per_trial", reference_mc(ctx.seed));
    reference_faults(ctx.seed);
    trace.raw("spans", spans_json());
    doc.obj("trace", trace);
  }
  return finish(std::move(doc), attempted, failed, JsonObj{}, identical);
}

} // namespace perfbench
