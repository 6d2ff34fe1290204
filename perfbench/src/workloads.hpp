// The benchmark's three workloads. Each runs in this process, in rounds of a
// one-thread and an N-thread phase until the run's time is spent, then once
// through two dist workers, and returns the raw measurement document run.py
// turns into metrics. Checkpoints and sockets go below the current directory.
#pragma once

#include <cstdint>

#include "raw_json.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0; ///< measuring time; at least one round always runs
  bool traced = false;   ///< one untraced round, then the traced phases
  int threads = 1;       ///< N = min(4, nproc)
};

JsonObj run_mc_power_cycle(const RunContext& ctx);
JsonObj run_paper_tables(const RunContext& ctx);
JsonObj run_powerfail_checkpointed(const RunContext& ctx);

/// Outcome classes of the mc-power-cycle campaign for seeds first..last, the
/// source of perfbench/expected/mc_classes.json.
JsonObj record_mc_classes(std::uint64_t first, std::uint64_t last, int threads);

} // namespace perfbench
