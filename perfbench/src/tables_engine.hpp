// The paper-tables workload as a campaign engine.
//
// One trial is one call the paper's two tables are made of: a Table II row
// (Characterizer::standard_pair / proposed_2bit at one corner, the six calls
// core::measure_table2 makes), the measured-cell roll-up
// (core::NvCellSet::measured), or one Table III flow (core::run_flow on one of
// the 13 paper benchmarks). Wrapping them in dist::CampaignEngine lets the
// same work run at one thread, at N threads under runtime::run_supervised,
// and across dist workers, with one report to compare byte for byte.
//
// The inputs are the paper's fixed ones (Table I technology, the three
// corners, the 13 benchmarks), which is what the goldens pin; there is no
// random input for a seed to vary.
#pragma once

#include <string>
#include <vector>

#include "dist/engine.hpp"

namespace perfbench {

class TablesEngine final : public nvff::dist::CampaignEngine {
public:
  static constexpr const char* kName = "perfbench-tables";

  /// The 20 operations: Table II rows, the measured cells, Table III flows
  /// in the paper's benchmark order.
  static std::vector<std::string> paper_ops();

  explicit TablesEngine(std::vector<std::string> ops);

  const char* name() const override { return kName; }
  int trials() const override { return static_cast<int>(ops_.size()); }
  std::string config_blob() const override { return serialize({}); }
  nvff::runtime::TrialStatus run_trial(int id,
                                       const nvff::CancelToken& cancel) override;
  std::string serialize(const std::vector<int>& ids) const override;
  std::vector<int> merge(const std::string& payload) override;
  std::string report() const override;

  /// Records spans around every library call a trial makes, flows split into
  /// their stages, under span `parent` (Span::kInherit = the calling thread's).
  void enable_tracing(int parent);

  const std::string& op(int id) const { return ops_[static_cast<std::size_t>(id)]; }
  /// Values of a finished trial (see tables_engine.cpp for the layout per op).
  const std::vector<double>& values(int id) const {
    return slots_[static_cast<std::size_t>(id)].values;
  }
  bool ok(int id) const { return slots_[static_cast<std::size_t>(id)].ok; }

  /// Registers the factory dist workers use to rebuild this engine.
  static void register_factory();

private:
  struct Slot {
    bool ok = false;
    std::vector<double> values;
  };

  std::vector<double> compute(int id) const;

  std::vector<std::string> ops_;
  std::vector<Slot> slots_;
  bool traced_ = false;
  int traceParent_ = -2;
};

} // namespace perfbench
