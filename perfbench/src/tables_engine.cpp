#include "tables_engine.hpp"

#include <optional>
#include <stdexcept>

#include "bench_circuits/generator.hpp"
#include "cell/characterize.hpp"
#include "core/flow.hpp"
#include "core/nv_cells.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace json = nvff::json;
using nvff::cell::Corner;

namespace {

Corner corner_from(const std::string& name) {
  if (name == "worst") return Corner::Worst;
  if (name == "typical") return Corner::Typical;
  if (name == "best") return Corner::Best;
  throw std::runtime_error("tables: unknown corner " + name);
}

std::vector<double> latch_values(const nvff::cell::LatchMetrics& m) {
  return {m.readEnergy,   m.readDelay,
          m.leakage,      m.writeEnergy,
          m.writeLatency, static_cast<double>(m.readTransistors),
          m.areaUm2,      m.functional ? 1.0 : 0.0};
}

/// core::run_flow split into its stages, one span each. Mirrors the stage
/// sequence of run_flow; the caller checks the pair counts against the
/// untraced run_flow.
nvff::core::FlowReport staged_flow(const nvff::bench::BenchmarkSpec& spec,
                                   int trial, int parent) {
  using namespace nvff;
  Span flow("core.run_flow", trial, spec.name, parent);
  core::FlowOptions options;
  options.placer.utilization = spec.utilization;
  core::FlowReport report;
  report.benchmark = spec.name;
  {
    Span s("bench_circuits.generate", -1, spec.name);
    report.circuit = bench::generate_benchmark_detailed(spec);
  }
  const bench::Netlist& netlist = report.circuit.netlist;
  report.totalFlipFlops = netlist.num_flip_flops();
  {
    Span s("physdes.place", -1, spec.name);
    report.placement = physdes::place(netlist, cell::CmosCellLibrary::tsmc40_like(),
                                      options.placer);
  }
  {
    Span s("core.ff_sites", -1, spec.name);
    report.ffSites = core::ff_sites_from_placement(report.placement, netlist);
  }
  {
    Span s("pairing.pair_flip_flops", -1, spec.name);
    report.pairing = pairing::pair_flip_flops(report.ffSites, options.pairing);
  }
  report.pairs = report.pairing.num_pairs();
  report.pairedFraction = report.pairing.paired_fraction(report.totalFlipFlops);
  Span s("core.roll_up", -1, spec.name);
  const core::RollUp r = core::roll_up(report.totalFlipFlops, report.pairs, options.cells);
  report.areaStd = r.areaStd;
  report.energyStd = r.energyStd;
  report.areaProp = r.areaProp;
  report.energyProp = r.energyProp;
  return report;
}

} // namespace

std::vector<std::string> TablesEngine::paper_ops() {
  std::vector<std::string> ops;
  for (const char* design : {"standard", "proposed"})
    for (const char* corner : {"worst", "typical", "best"})
      ops.push_back(std::string("table2/") + design + "/" + corner);
  ops.emplace_back("cells/measured");
  for (const auto& spec : nvff::bench::paper_benchmarks())
    ops.push_back("flow/" + spec.name);
  return ops;
}

TablesEngine::TablesEngine(std::vector<std::string> ops)
    : ops_(std::move(ops)), slots_(ops_.size()) {}

void TablesEngine::enable_tracing(int parent) {
  traced_ = true;
  traceParent_ = parent;
}

// Values per op:
//  table2/*       readEnergy, readDelay, leakage, writeEnergy, writeLatency,
//                 readTransistors, areaUm2, functional (1/0)
//  cells/measured std 1-bit area, std 1-bit energy, 2-bit area, 2-bit energy
//  flow/*         flip-flops, pairs, paired fraction, area std, energy std,
//                 area proposed, energy proposed (paper cell values)
std::vector<double> TablesEngine::compute(int id) const {
  using namespace nvff;
  const std::string& op = ops_[static_cast<std::size_t>(id)];
  // A fresh Characterizer per trial: its deck caches are not thread-safe,
  // and Table II builds and compiles its decks per call.
  const cell::Characterizer characterizer;
  if (op.rfind("table2/", 0) == 0) {
    const std::size_t slash = op.find('/', 7);
    const std::string design = op.substr(7, slash - 7);
    const std::string cornerName = op.substr(slash + 1);
    const Corner corner = corner_from(cornerName);
    const bool standard = design == "standard";
    std::optional<Span> span;
    if (traced_)
      span.emplace(standard ? "cell.standard_pair" : "cell.proposed_2bit", id,
                   cornerName, traceParent_);
    return latch_values(standard ? characterizer.standard_pair(corner)
                                 : characterizer.proposed_2bit(corner));
  }
  if (op == "cells/measured") {
    std::optional<Span> span;
    if (traced_) span.emplace("core.nv_cells_measured", id, "typical", traceParent_);
    const core::NvCellSet cells = core::NvCellSet::measured(characterizer);
    return {cells.standard1bit.areaUm2, cells.standard1bit.readEnergyJ,
            cells.proposed2bit.areaUm2, cells.proposed2bit.readEnergyJ};
  }
  if (op.rfind("flow/", 0) == 0) {
    const bench::BenchmarkSpec& spec = bench::find_benchmark(op.substr(5));
    const core::FlowReport r =
        traced_ ? staged_flow(spec, id, traceParent_) : core::run_flow(spec);
    return {static_cast<double>(r.totalFlipFlops), static_cast<double>(r.pairs),
            r.pairedFraction, r.areaStd, r.energyStd, r.areaProp, r.energyProp};
  }
  throw std::runtime_error("tables: unknown op " + op);
}

nvff::runtime::TrialStatus TablesEngine::run_trial(int id, const nvff::CancelToken&) {
  Slot& slot = slots_[static_cast<std::size_t>(id)];
  try {
    slot.values = compute(id);
    // A Table II design that does not restore its data is a failed trial.
    slot.ok = ops_[static_cast<std::size_t>(id)].rfind("table2/", 0) != 0 ||
              slot.values.back() == 1.0;
  } catch (const std::exception&) {
    slot.ok = false;
    slot.values.clear();
  }
  return slot.ok ? nvff::runtime::TrialStatus::Ok
                 : nvff::runtime::TrialStatus::Permanent;
}

std::string TablesEngine::serialize(const std::vector<int>& ids) const {
  std::string out = "{\"engine\":";
  json::append_escaped(out, kName);
  out += ",\"ops\":[";
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0) out += ',';
    json::append_escaped(out, ops_[i]);
  }
  out += "],\"trials\":[";
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const Slot& slot = slots_[static_cast<std::size_t>(ids[k])];
    if (k > 0) out += ',';
    out += "{\"id\":" + std::to_string(ids[k]) +
           ",\"ok\":" + (slot.ok ? "true" : "false") + ",\"v\":[";
    for (std::size_t i = 0; i < slot.values.size(); ++i) {
      if (i > 0) out += ',';
      out += json::num(slot.values[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::vector<int> TablesEngine::merge(const std::string& payload) {
  const json::Value doc = json::parse(payload, "tables checkpoint");
  const json::Value& ops = doc.at("ops");
  bool same = ops.items.size() == ops_.size();
  for (std::size_t i = 0; same && i < ops_.size(); ++i)
    same = ops.items[i].as_str() == ops_[i];
  if (!same) throw nvff::runtime::ConfigMismatch("tables: operation list differs");
  std::vector<int> ids;
  for (const json::Value& t : doc.at("trials").items) {
    const double raw = t.at("id").as_num();
    if (!(raw >= 0.0 && raw < trials())) continue;
    const int id = static_cast<int>(raw);
    Slot& slot = slots_[static_cast<std::size_t>(id)];
    slot.ok = t.at("ok").as_bool();
    slot.values.clear();
    for (const json::Value& v : t.at("v").items) slot.values.push_back(v.as_num());
    ids.push_back(id);
  }
  return ids;
}

std::string TablesEngine::report() const {
  std::string out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    out += ops_[i];
    if (!slots_[i].ok) out += " FAILED";
    for (const double v : slots_[i].values) out += ' ' + json::num(v);
    out += '\n';
  }
  return out;
}

void TablesEngine::register_factory() {
  nvff::dist::register_engine_factory(
      kName, [](const std::string& blob) -> std::unique_ptr<nvff::dist::CampaignEngine> {
        const json::Value doc = json::parse(blob, "tables config");
        std::vector<std::string> ops;
        for (const json::Value& op : doc.at("ops").items) ops.push_back(op.as_str());
        return std::make_unique<TablesEngine>(std::move(ops));
      });
}

} // namespace perfbench
