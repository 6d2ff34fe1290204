#include "spice_probe.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "cell/multibit_latch.hpp"
#include "cell/scenarios.hpp"
#include "mtj/device.hpp"
#include "spice/analysis.hpp"
#include "spice/mosfet.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace nvff;

constexpr int kCompileSamples = 5;
constexpr int kPatchSamples = 21;
constexpr int kTimedSolves = 3;
constexpr int kDcSamples = 5;
constexpr std::size_t kReplayStates = 48;
constexpr int kReplayRepeats = 20;
constexpr double kGmin = spice::NewtonOptions{}.gmin;

double us_since(double t0) { return (now_s() - t0) * 1e6; }

struct Captured {
  double time = 0.0;
  std::vector<double> x;    ///< converged solution at `time`
  std::vector<double> prev; ///< the step before it
};

/// Probes one deck type. `gateFrom`/`gateTo` bound the supply-gated interval
/// (empty for decks without one); `fromZero` starts the transient from the
/// all-zero state as the Table II read runs do, else from the DC point.
template <class Deck, class Make>
JsonObj probe(const std::string& label, double dt, double gateFrom, double gateTo,
              bool fromZero, Make make) {
  const cell::Technology tech = cell::Technology::table1();
  const cell::TechCorner corner = tech.read_corner(cell::Corner::Typical);
  JsonObj out;
  out.str("deck", label).num("dt", dt);

  std::unique_ptr<Deck> deck;
  std::vector<double> compileUs;
  {
    Span s("cell.deck_compile", -1, label);
    for (int i = 0; i < kCompileSamples; ++i) {
      const double t0 = now_s();
      deck = make(tech, corner);
      compileUs.push_back(us_since(t0));
    }
  }
  std::vector<double> patchUs;
  {
    Span s("cell.deck_patch", -1, label);
    for (int i = 0; i < kPatchSamples; ++i) {
      const double t0 = now_s();
      deck->patch(corner);
      patchUs.push_back(us_since(t0));
    }
  }
  out.nums("deck_compile_us", compileUs).nums("deck_patch_us", patchUs);

  spice::TransientOptions opt;
  opt.tStop = deck->inst.tEnd;
  opt.dt = dt;
  const std::size_t numNodes = deck->compiled.num_nodes();
  const std::size_t n = deck->compiled.num_unknowns();
  const spice::Solution zero(std::vector<double>(n, 0.0), numNodes);
  auto solve = [&](spice::Simulator& sim, const spice::Simulator::Observer& obs) {
    return fromZero ? sim.run_transient_from(zero, opt, obs)
                    : sim.run_transient(opt, obs);
  };

  // Counters come from the first solve on the freshly compiled deck, so the
  // LU counters include the pivot-order discovery a new deck pays.
  long steps = 0;
  {
    Span s("spice.run_transient", -1, label + " counted");
    deck->patch(corner);
    spice::Simulator sim(deck->compiled, deck->ws);
    long gated = 0;
    const spice::SolveReport rep = solve(sim, [&](double t, const spice::Solution&) {
      if (t > gateFrom && t <= gateTo) ++gated;
    });
    steps = sim.stats().totalSteps;
    out.boolean("converged", rep.ok())
        .integer("steps", steps)
        .integer("newton_iterations", sim.stats().totalNewtonIterations)
        .integer("gated_steps", gated)
        .integer("lu_fast_solves", deck->ws.lu.fast_solve_count())
        .integer("lu_dense_solves", deck->ws.lu.dense_solve_count())
        .integer("lu_fill_slots", static_cast<long>(deck->ws.lu.fill_slot_count()));
  }

  std::vector<double> solveUs;
  long timedIterations = 0;
  {
    Span s("spice.run_transient", -1, label + " timed");
    for (int i = 0; i < kTimedSolves; ++i) {
      deck->patch(corner);
      spice::Simulator sim(deck->compiled, deck->ws);
      const double t0 = now_s();
      solve(sim, {});
      solveUs.push_back(us_since(t0));
      timedIterations = sim.stats().totalNewtonIterations;
    }
  }
  out.nums("solve_us", solveUs).integer("timed_solve_iterations", timedIterations);

  std::vector<Captured> states;
  {
    Span s("spice.run_transient", -1, label + " capture");
    deck->patch(corner);
    spice::Simulator sim(deck->compiled, deck->ws);
    const long stride = std::max<long>(1, steps / static_cast<long>(kReplayStates));
    long k = 0;
    std::vector<double> last;
    solve(sim, [&](double t, const spice::Solution& sol) {
      if (k > 0 && k % stride == 0 && states.size() < kReplayStates)
        states.push_back({t, sol.raw(), last});
      last = sol.raw();
      ++k;
    });
  }

  std::vector<spice::Device*> linear, mosfets, mtjs, otherNonlinear;
  for (const auto& item : deck->compiled.plan()) {
    if (item.linear)
      linear.push_back(item.device);
    else if (dynamic_cast<spice::Mosfet*>(item.device) != nullptr)
      mosfets.push_back(item.device);
    else if (dynamic_cast<mtj::MtjDevice*>(item.device) != nullptr)
      mtjs.push_back(item.device);
    else
      otherNonlinear.push_back(item.device);
  }

  double tapeUs = 0.0, mosfetUs = 0.0, mtjUs = 0.0, otherUs = 0.0, luUs = 0.0;
  long luCalls = 0;
  {
    Span s("spice.replay", -1, label);
    spice::DenseMatrix jac;
    jac.resize(n);
    std::vector<double> rhs(n, 0.0);
    std::vector<double> x(n, 0.0);
    spice::StampTape tape;
    spice::SparseLu lu;
    lu.bind(deck->compiled);
    spice::DenseMatrix work;
    auto time_stamps = [&](const std::vector<spice::Device*>& devices,
                           spice::Stamper& stamper, const spice::SimState& st) {
      const double t0 = now_s();
      for (int r = 0; r < kReplayRepeats; ++r)
        for (spice::Device* d : devices) d->stamp(stamper, st);
      return us_since(t0);
    };
    for (const Captured& c : states) {
      spice::SimState base;
      base.time = c.time;
      base.dt = dt;
      base.transient = true;
      base.numNodes = numNodes;
      base.previous = &c.prev;

      spice::Stamper recorder(jac, rhs, numNodes, &tape);
      const double t0 = now_s();
      for (int r = 0; r < kReplayRepeats; ++r) {
        tape.reset();
        for (spice::Device* d : linear) d->stamp(recorder, base);
      }
      tapeUs += us_since(t0);

      spice::SimState st = base;
      st.iterate = &c.x;
      spice::Stamper stamper(jac, rhs, numNodes);
      mosfetUs += time_stamps(mosfets, stamper, st);
      mtjUs += time_stamps(mtjs, stamper, st);
      otherUs += time_stamps(otherNonlinear, stamper, st);

      // One iteration's system, assembled as the engine does: linear tape,
      // nonlinear stamps, gmin on every node.
      jac.clear();
      std::fill(rhs.begin(), rhs.end(), 0.0);
      double* a = jac.data();
      for (const auto& e : tape.jac) a[e.slot] += e.value;
      for (const auto& e : tape.rhs) rhs[e.row] += e.value;
      for (spice::Device* d : mosfets) d->stamp(stamper, st);
      for (spice::Device* d : mtjs) d->stamp(stamper, st);
      for (spice::Device* d : otherNonlinear) d->stamp(stamper, st);
      for (std::size_t i = 0; i < numNodes; ++i) jac.add(i, i, kGmin);
      for (int r = 0; r < kReplayRepeats; ++r) {
        work = jac;
        const double t1 = now_s();
        lu.solve_in_place(work, rhs, x);
        luUs += us_since(t1);
        ++luCalls;
      }
      jac.clear();
    }
    out.integer("replay_states", static_cast<long>(states.size()))
        .integer("replay_repeats", kReplayRepeats)
        .integer("mosfets", static_cast<long>(mosfets.size()))
        .integer("mtjs", static_cast<long>(mtjs.size()))
        .integer("linear_devices", static_cast<long>(linear.size()))
        .num("replay_tape_us_total", tapeUs)
        .num("replay_mosfet_us_total", mosfetUs)
        .num("replay_mtj_us_total", mtjUs)
        .num("replay_other_nonlinear_us_total", otherUs)
        .num("replay_lu_us_total", luUs)
        .integer("replay_lu_calls", luCalls)
        .integer("replay_lu_dense_solves", lu.dense_solve_count());
  }

  std::vector<double> dcUs;
  {
    Span s("spice.solve_dc", -1, label);
    for (int i = 0; i < kDcSamples; ++i) {
      deck->patch(corner);
      spice::Simulator sim(deck->compiled, deck->ws);
      spice::Solution sol;
      const double t0 = now_s();
      sim.solve_dc(sol);
      dcUs.push_back(us_since(t0));
    }
  }
  out.nums("dc_op_us", dcUs);
  return out;
}

} // namespace

JsonObj run_spice_probe(ProbeDeck which) {
  const cell::PowerCycleTiming timing{};
  if (which == ProbeDeck::PowerCycle) {
    return probe<cell::MultibitPowerCycleDeck>(
        "2-bit power-cycle d0=1 d1=0", 4e-12, timing.offStart() + timing.offRamp,
        timing.onStart(), false,
        [&](const cell::Technology& tech, const cell::TechCorner& corner) {
          return std::make_unique<cell::MultibitPowerCycleDeck>(tech, corner, true,
                                                                false, timing);
        });
  }
  return probe<cell::MultibitReadDeck>(
      "2-bit read d0=1 d1=0", 2e-12, 0.0, 0.0, true,
      [](const cell::Technology& tech, const cell::TechCorner& corner) {
        return std::make_unique<cell::MultibitReadDeck>(tech, corner, true, false,
                                                        cell::TwoBitReadTiming{});
      });
}

} // namespace perfbench
