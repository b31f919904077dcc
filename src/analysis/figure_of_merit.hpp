// The Chapter 7 performance sweep: every method × every configuration ×
// both branch scenarios, normalized to the Baseline Figure of Merit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/stats.hpp"
#include "bytecode/method.hpp"
#include "cache/store.hpp"
#include "obs/critpath.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "util/intern.hpp"

namespace javaflow::analysis {

// Method population filters (paper Table 16).
enum class Filter : std::uint8_t {
  All,      // every method
  Filter1,  // 10 < static instructions < 1000
  Filter2,  // the hottest (dynamically weighted) methods within Filter1
};
bool filter_accepts(Filter f, std::size_t static_insts, bool is_hot) noexcept;

// One execution sample: a (method, config, scenario) cell of the sweep.
// The name fields are interned handles: every cell of a method shares
// one heap string per name instead of copying it twelve times per
// method (util/intern.hpp); they convert implicitly to const
// std::string& wherever a plain string is expected.
struct SweepSample {
  util::InternedString method;
  util::InternedString benchmark;
  std::size_t config_index = 0;    // into the sweep's config list
  sim::BranchPredictor::Scenario scenario =
      sim::BranchPredictor::Scenario::BP1;
  std::int32_t static_insts = 0;
  std::int32_t back_jumps = 0;
  bool is_hot = false;             // in the dynamic top-90 % set
  sim::RunMetrics metrics;

  // Field-wise equality, used to assert that parallel and serial sweeps
  // produce identical sample sequences.
  bool operator==(const SweepSample&) const = default;
};

// Critical-path attribution for one sweep cell (SweepOptions::analyze):
// the per-category tick totals from obs::attribute().
// `valid` requires a completed run whose attributed categories sum
// exactly to the cell's RunMetrics.ticks; invalid cells keep zeros.
// Name-independent, so dedup copies are exact.
struct CellAttribution {
  bool valid = false;
  std::array<std::int64_t, obs::kNumPathCategories> category_ticks{};

  std::int64_t total() const {
    std::int64_t s = 0;
    for (const std::int64_t v : category_ticks) s += v;
    return s;
  }
  bool operator==(const CellAttribution&) const = default;
};

// Per-phase wall-clock profile of a sweep, aggregated per worker lane
// (docs/OBSERVABILITY.md). Phase timings are wall time and therefore NOT
// part of the determinism guarantee — only `methods`/`cells` are stable.
struct SweepProfile {
  struct Lane {
    double verify_s = 0.0;   // back-jump scan, static bounds
    double resolve_s = 0.0;  // dataflow-graph construction
    double place_s = 0.0;    // per-config fabric placement
    double plan_s = 0.0;     // execution-plan lowering (one per config)
    double execute_s = 0.0;  // engine runs (all config x scenario cells)
    double cache_s = 0.0;    // result-cache probe/fill/store time
    std::size_t methods = 0;
    std::size_t cells = 0;
    // Result-cache counters (docs/PERF.md "Result cache"). Cell-granular
    // and, summed over lanes, identical for every thread count:
    //   cache_hit_cells  — served from a cached record, execution skipped;
    //   cache_miss_cells — executed because no usable record existed;
    //   dedup_cells      — copied from a byte-identical method's cells
    //                      within this sweep (always on lane 0: the
    //                      dedup fill is a serial post-pass).
    std::size_t cache_hit_cells = 0;
    std::size_t cache_miss_cells = 0;
    std::size_t dedup_cells = 0;
    // Engine work counters over the executed cells (sim::RunWork; docs/
    // PERF.md "Loop fast-forward"). Deterministic and, summed over lanes,
    // identical for every thread count; kept out of RunMetrics and the
    // cache key:
    //   ff_periods  — loop periods the fast-forward skipped;
    //   ff_messages — serial + mesh messages those periods account for,
    //                 counted in the samples but never simulated;
    //   spills      — events scheduled past the calendar ring.
    std::int64_t ff_periods = 0;
    std::int64_t ff_messages = 0;
    std::int64_t spills = 0;
  };
  std::vector<Lane> lanes;  // index = worker lane; serial sweeps use [0]
  double wall_s = 0.0;      // whole-sweep wall clock

  Lane total() const;  // field-wise sum over lanes
};

struct SweepOptions {
  // Both branch scenarios, in cell order within each config; every sweep
  // runs both.
  static constexpr std::array<sim::BranchPredictor::Scenario, 2> scenarios =
      {sim::BranchPredictor::Scenario::BP1,
       sim::BranchPredictor::Scenario::BP2};
  std::vector<sim::MachineConfig> configs;  // default: table15_configs()
  // Optional subsampling for quick runs: keep every k-th method (1 = all).
  int stride = 1;
  // Worker threads for the sweep: 1 (default) runs in-line on the
  // calling thread; 0 uses one worker per hardware thread; n >= 2 uses
  // exactly n workers, taken as given (the bench harnesses clamp their
  // JAVAFLOW_THREADS request to the hardware first). The sweep shards per
  // method and writes samples at precomputed indices, so the output is
  // identical for every setting.
  int threads = 1;
  // Analysis sweep (docs/ANALYSIS.md, docs/OBSERVABILITY.md
  // "Attribution"): every executed cell also gets its critical-path
  // category vector (Sweep::attribution), the static lower bound of the
  // plan the sweep lowered for it (Sweep::lower_bounds), and the JF-E010
  // cross-check of its RunMetrics and buffer high-water marks against
  // the static bounds (Sweep::lint_findings, once per distinct method
  // body under its first name). Analysis reads what only execution
  // produces, so it forces the result cache off for the sweep.
  // Deterministic and thread-count-invariant like the samples.
  bool analyze = false;
  // Persistent content-addressed result cache (docs/PERF.md "Result
  // cache"), off by default. Hits skip execution for the whole method
  // and fill its samples from the cached record; the output stays
  // deterministically indexed and thread-count-invariant either way.
  // An analysis sweep (`analyze`) runs with the cache off.
  cache::CacheMode cache = cache::CacheMode::Off;
  // Cache directory, used exactly as given; must be non-empty when the
  // cache is on.
  std::string cache_dir;
};

struct Sweep {
  std::vector<sim::MachineConfig> configs;
  std::vector<SweepSample> samples;
  // Parallel to `samples` when SweepOptions::analyze is set (empty
  // otherwise): critical-path category ticks per cell.
  std::vector<CellAttribution> attribution;
  // Parallel to `samples` when SweepOptions::analyze is set (empty
  // otherwise): the static lower bound on ticks of the cell's (method,
  // config), MethodBounds::lower_bound_ticks of the plan the sweep
  // lowered, or kNoBound (analysis/bounds.hpp) where no bound is proven.
  std::vector<std::int64_t> lower_bounds;
  // JF-E010 findings, populated when SweepOptions::analyze is set.
  std::vector<LintFinding> lint_findings;
  std::int32_t lint_errors = 0;
  std::int32_t lint_warnings = 0;
  // Per-phase wall-clock profile.
  SweepProfile profile;
  // Result-cache outcome for this sweep (docs/PERF.md "Result cache").
  // Counters are cell-granular and thread-count-invariant.
  struct CacheStats {
    std::string mode;  // mode the sweep ran with (analysis forces off)
    std::size_t hit_cells = 0;
    std::size_t miss_cells = 0;
    std::size_t dedup_cells = 0;
    std::size_t stored_records = 0;
  };
  CacheStats cache;
};

// Runs the full sweep. `hot_methods` marks Filter 2 membership (by
// qualified name). Methods that do not fit or time out are recorded with
// their flags so tables can report exclusions. Byte-identical method
// bodies simulate once and share their cells; the name-dependent sample
// fields (method, benchmark, is_hot) are still filled per method. No
// environment variable is read (bench/bench_common.hpp maps them onto
// the options). Throws std::invalid_argument when the cache is on with
// an empty cache_dir.
Sweep run_sweep(const std::vector<const bytecode::Method*>& methods,
                const bytecode::ConstantPool& pool,
                const std::vector<std::string>& hot_methods,
                const SweepOptions& options);

// ---- aggregations ----

// Raw IPC rows (Tables 21 / 24 / 25, left half).
struct IpcRow {
  std::string config;
  Summary ipc;
};
std::vector<IpcRow> ipc_rows(const Sweep& sweep, Filter filter);

// Figure-of-Merit rows (Tables 22 / 24 / 25): per-method IPC normalized
// to that method's Baseline IPC under the same scenario, then averaged.
struct FomRow {
  std::string config;
  double ipc_mean = 0.0;
  double ipc_median = 0.0;
  double fm_mean = 0.0;
  double fm_std = 0.0;
  std::size_t samples = 0;
};
std::vector<FomRow> fom_rows(const Sweep& sweep, Filter filter);

// Table 23: correlation of the Heterogeneous FoM with method factors.
struct CorrelationRow {
  std::string factor;
  double correlation = 0.0;
};
std::vector<CorrelationRow> hetero_fom_correlations(const Sweep& sweep);

// Table 18: execution coverage per scenario.
struct CoverageRow {
  std::string scenario;
  double mean_coverage = 0.0;
};
std::vector<CoverageRow> coverage_rows(const Sweep& sweep);

// Table 19/20: instructions-to-max-node ratios per configuration.
struct NodeRatioRow {
  std::string config;
  Summary ratio;
};
std::vector<NodeRatioRow> node_ratio_rows(const Sweep& sweep, Filter filter);

// Table 26: parallelism per configuration.
struct ParallelismRow {
  std::string config;
  double mean_fraction_2plus = 0.0;
};
std::vector<ParallelismRow> parallelism_rows(const Sweep& sweep);

// Per-config aggregation of the network-traffic and execution-overlap
// RunMetrics fields (mesh_messages, serial_messages, ticks_exec_1plus/
// 2plus) that the tables never surfaced. Means are over usable samples
// (fits, completed, not timed out).
struct NetworkRow {
  std::string config;
  std::size_t samples = 0;
  std::uint64_t total_mesh_messages = 0;
  std::uint64_t total_serial_messages = 0;
  double mean_mesh_messages = 0.0;
  double mean_serial_messages = 0.0;
  double mean_ticks_exec_1plus = 0.0;
  double mean_ticks_exec_2plus = 0.0;
};
std::vector<NetworkRow> network_rows(const Sweep& sweep);

// Tables 27/28: per-method Figure of Merit across configurations for a
// named method list (the top-4 SPEC methods).
struct MethodFomRow {
  std::string method;
  std::string benchmark;
  std::int32_t total_insts = 0;
  std::int32_t hetero_nodes = 0;  // "Sparser N": max node in Hetero2
  std::vector<double> fm;         // one per config, Baseline first
};
std::vector<MethodFomRow> per_method_fom(
    const Sweep& sweep, const std::vector<std::string>& methods);

}  // namespace javaflow::analysis
