// Static timing / resource bound analyzer (docs/ANALYSIS.md).
//
// For a placed method on a concrete MachineConfig this pass computes:
//
//   * a critical-path LOWER bound on execution ticks — a min-plus
//     fixpoint over the serial chain, the branch arms and the forward
//     dataflow edges, weighted with the engine's own cost model
//     (Table 17 execution costs, serial hop latency, mesh X-Y transit
//     from the concrete placement, ring service times). Soundness
//     invariant: for every cell the engine completes,
//     `lower_bound_ticks <= RunMetrics::ticks`.
//
//   * per-node earliest-fire ticks (the same fixpoint's intermediate
//     solution), useful for schedule visualization and tightness data.
//
//   * provable per-node resource intervals: operand-buffer occupancy
//     [pop, forward in-edges], forward mesh fan-out, and — for the
//     control nodes that buffer the serial token bundle (§6.3) — an
//     upper bound on buffered tokens that must dominate the measured
//     `obs::MetricsRegistry` buffer high-water marks.
//
// The bound rules JF-E008 (definite overflow) / JF-W103 (possible,
// unproven) replace JF-E005's method-level max_stack heuristic with
// per-node intervals; JF-E010 fires when measured engine metrics
// contradict a proven bound (the cross-validation layer used by
// `SweepOptions::check_bounds`).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "bytecode/method.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"

namespace javaflow::analysis {

// "Unreachable / never fires" sentinel for tick values. Large enough to
// dominate every real tick count, small enough that saturating adds in
// the fixpoint can never overflow.
inline constexpr std::int64_t kNoBound =
    std::numeric_limits<std::int64_t>::max() / 4;

// Earliest-possible ticks for one linear instruction address. kNoBound
// means the analyzer proved the event can never happen (e.g. an operand
// side fed only by back edges, which the mesh never delivers).
struct NodeTiming {
  std::int64_t head = kNoBound;  // HEAD token arrival
  std::int64_t fire = kNoBound;  // firing (all operands + tokens present)
  std::int64_t done = kNoBound;  // execution complete (Table 17 cost paid)
};

// Token-bundle buffering interval for one control node (§6.3: control
// nodes hold the whole serial bundle while unfired).
struct TokenBufferBound {
  std::int32_t node = -1;  // linear address of the buffering node
  std::int32_t phys = -1;  // physical fabric node (HWM index)
  std::int32_t lo = 0;     // tokens provably present when it fires
  std::int32_t hi = 0;     // tokens provably never exceeded
};

struct MethodBounds {
  bool valid = false;  // placement fits and the fixpoint converged

  // Timing (per linear address; lower_bound is min over Return dones).
  std::vector<NodeTiming> nodes;
  std::int64_t lower_bound_ticks = kNoBound;

  // Resources.
  std::vector<std::int32_t> operand_hi;       // forward in-edges per node
  std::vector<std::int32_t> forward_fanout;   // forward out-edges per node
  std::vector<TokenBufferBound> token_buffers;
  std::int32_t max_forward_fanout = 0;

  // Max token-buffer `hi` over control nodes mapped to physical node
  // `phys`; 0 when no control node lives there (then the engine never
  // records a high-water mark for it).
  std::int32_t token_hi_at_phys(std::int32_t phys) const noexcept;
};

// Computes all bounds for one (method, config) pair from the method's
// pre-lowered execution plan (docs/PERF.md "Execution kernel"). The plan
// already embeds the placement, the forward-edge producer lists, and
// every engine cost the fixpoint weights with (Table 17 execution
// ticks, ring service surcharges, per-edge mesh delivery ticks, serial
// hop latency), so this is the primary implementation: the analyzer and
// the engine read the same lowered image. `m` is still consulted for
// the switch tables (branch arms) only. Never executes anything.
MethodBounds compute_bounds(const bytecode::Method& m,
                            const sim::ExecPlan& plan);

// Static resource rules over a computed bound: JF-E008 when a node
// provably needs more operand buffering than `options.node_buffer_capacity`
// provides, JF-W103 when the occupancy upper bound exceeds it without a
// matching lower-bound proof.
void lint_bounds(const bytecode::Method& m, const sim::MachineConfig& config,
                 const MethodBounds& bounds, const LintOptions& options,
                 LintReport& out);

// Cross-validation (JF-E010): measured engine results must respect the
// static bounds. `registry` carries the per-physical-node buffer
// high-water marks of exactly this run, or null when only cached
// RunMetrics are available (then only the ticks bound is checked).
// No-op for cells the engine did not complete normally.
void check_metrics_against_bounds(const std::string& method_name,
                                  std::string_view config_name,
                                  std::string_view scenario_name,
                                  const sim::RunMetrics& metrics,
                                  const obs::MetricsRegistry* registry,
                                  const MethodBounds& bounds,
                                  LintReport& out);

}  // namespace javaflow::analysis
