// Analog-engine probe for the traced run.
//
// Runs one typical-corner 2-bit (d0 = 1, d1 = 0) deck through the public
// Simulator API and reads its deterministic work counters
// (Simulator::stats(), the SparseLu accessors). It then replays, in
// isolation, the public calls a Newton iteration is made of, at solutions
// the Observer captured along the transient: Device::stamp into a Stamper
// (MOSFETs, MTJs), Device::stamp into a StampTape (the linear devices' tape
// refresh) and SparseLu::solve_in_place. The replay times are "isolated
// replay" costs, not in-situ self time: caches, branch history and pivot
// state differ from the engine's own loop.
#pragma once

#include "raw_json.hpp"

namespace perfbench {

enum class ProbeDeck {
  PowerCycle, ///< store -> power-off -> restore at dt 4 ps (mc-power-cycle)
  Read,       ///< Table II restore at dt 2 ps (paper-tables)
};

/// Runs the probe, recording spans around its phases. Returns the raw
/// counters, sample lists [us] and replay totals; run.py derives the
/// per-layer metrics from them.
JsonObj run_spice_probe(ProbeDeck which);

} // namespace perfbench
