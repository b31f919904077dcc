// "Where do the ticks go" front end (docs/OBSERVABILITY.md).
//
// Two entry points over obs::critpath + obs::snapshot:
//
//   * explain_method — run one (method, config, scenario) cell with the
//     flight recorder attached and return the realized critical path in
//     detail mode, together with the static lower bound from
//     analysis::compute_bounds so the renderer can show per-category
//     attribution and the slack over the provable minimum.
//
//   * build_snapshot — run an attribution sweep over a corpus slice and
//     package every cell (ticks, category vector, lower bound, outcome
//     flags) into an obs::Snapshot for .jfs serialization and diffing.
//
// Both are deterministic: identical inputs produce identical outputs
// (build_snapshot for every thread count — tests/test_critpath.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "obs/critpath.hpp"
#include "obs/snapshot.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::analysis {

struct Explanation {
  bool ok = false;        // fits, completed, and attribution validated
  std::string error;      // human-readable reason when !ok
  std::string method;
  std::string config;
  std::string scenario;
  sim::RunMetrics metrics;
  obs::Attribution attribution;         // detail mode (steps + aggregates)
  std::int64_t lower_bound_ticks = -1;  // static bound; -1 = none proven
};

// Runs one cell with the flight recorder and static bound analyzer.
// Never throws; failures (does not fit, timeout, broken attribution)
// come back as ok=false with `error` set.
Explanation explain_method(const bytecode::Method& m,
                           const bytecode::ConstantPool& pool,
                           const sim::MachineConfig& config,
                           sim::BranchPredictor::Scenario scenario);

// Deterministic text rendering: outcome line, bound + slack, the
// category table, and the critical path capped at `max_steps` hops
// (0 = all). `labels` maps linear addresses to display names (empty =
// numeric addresses only).
void write_explanation_text(std::ostream& os, const Explanation& ex,
                            const std::vector<std::string>& labels,
                            std::size_t max_steps = 40);

// The snapshot always covers the six Table 15 configs and both branch
// scenarios.
struct SnapshotBuildOptions {
  int stride = 1;
  int threads = 1;  // SweepOptions semantics (0 = hardware concurrency)
  bool allow_oversubscribe = false;
};

// Runs an attribution sweep (cache forced off — instrumented mode) with
// check_bounds on, so every cell's static lower bound comes from the plan
// the sweep lowered, and returns the packaged snapshot in deterministic
// sweep order.
obs::Snapshot build_snapshot(const workloads::Corpus& corpus,
                             const SnapshotBuildOptions& options);

}  // namespace javaflow::analysis
