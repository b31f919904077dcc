// Critical-path attribution: where did the ticks go? (observability)
//
// The Chapter 7 evaluation explains performance in terms of the machine
// model's delay sources — serial-chain transit (§6.1 Figure 17), mesh
// hops (§6.1 Figure 18), operand waiting and TAIL holds (§6.3), Table 17
// execution costs, and ring service times (Figure 25) — but RunMetrics
// and MetricsRegistry only *count* those events. This module answers the
// causal question: for the one dependency chain that actually determined
// the run's length, how many ticks did each delay source contribute?
//
// A FlightRecorder is a compact in-memory capture mode (far cheaper than
// a Chrome-JSON trace) that records one dependency edge per scheduled
// event: the half-open tick interval from the moment the parent event
// dispatched to the moment this event fired, tagged with a PathCategory.
// Tokens that sit *held* at a node (operand wait, TAIL hold, firing
// stall) get synthetic hold edges spliced between their arrival and
// their release, so waiting time surfaces as its own category instead of
// hiding inside the next transit hop.
//
// attribute() walks parent links from the terminal event (the Return
// completion, or the GPP service that retired an exception) back to the
// bundle injection at tick 0. Because every edge starts exactly where
// its parent ended, the categories on that path sum *exactly* to the
// run's `ticks` — the invariant every caller asserts, per cell, across
// all configurations (tests/test_critpath.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

namespace javaflow::sim {
class ExecPlan;
}  // namespace javaflow::sim

namespace javaflow::obs {

// The seven delay sources a tick on the critical path can belong to.
// Order is the serialized order in snapshots — append-only; any
// semantic change must bump kAttributionFingerprint.
enum class PathCategory : std::uint8_t {
  SerialTransit = 0,  // ordered-network hops + bundle spacing (§6.1)
  MeshTransit,        // X-Y routed operand transfers (§6.1 Figure 18)
  OperandWait,        // register/memory token held until firing (§6.3)
  FireStall,          // ready-to-fire wait on a busy execution unit
  Execution,          // Table 17 group execution cost
  TailHold,           // TAIL waiting for instructions above it (§6.3)
  RingService,        // memory / constant / GPP ring round trips (Fig 25)
};
inline constexpr std::size_t kNumPathCategories = 7;
std::string_view path_category_name(PathCategory c) noexcept;

// Version stamp over the category enum *and* the edge-recording rules.
// Embedded in snapshot files, so .jfs snapshots invalidate when
// attribution semantics change (cache records hold no attribution).
// Bump on any change to PathCategory values, hold-edge splicing, or
// parent selection.
inline constexpr std::uint32_t kAttributionFingerprint = 1;

// One dependency edge: this event's delay segment [from_tick, to_tick]
// and the edge that caused it. `parent < 0` marks a root (bundle
// injection at tick 0). `from_phys`/`to_phys` are physical chain slots,
// set for mesh edges only (-1 otherwise); `opcode` is set for Execution
// edges only.
struct DepEdge {
  std::int64_t from_tick = 0;
  std::int64_t to_tick = 0;
  std::int32_t parent = -1;
  std::int32_t node = -1;
  std::int32_t from_phys = -1;
  std::int32_t to_phys = -1;
  PathCategory category = PathCategory::SerialTransit;
  std::uint8_t opcode = 0;
};

// Per-run dependency-edge capture. The engine resets it at the start of
// each run, records one edge per scheduled event (keyed by the event's
// seq, which is dense from 0) plus synthetic hold edges, and marks the
// terminal edge at completion. Storage is reused across runs, so a warm
// recorder costs no allocations on the sweep inner loop.
class FlightRecorder {
 public:
  void reset() {
    edges_.clear();
    seq2edge_.clear();
    terminal_ = -1;
  }

  // Record the edge behind a scheduled event. Seq values arrive densely
  // from 0 within a run; the map is a plain vector.
  std::int32_t record_event(std::int64_t seq, const DepEdge& e) {
    const std::int32_t id = record(e);
    const auto u = static_cast<std::size_t>(seq);
    if (u >= seq2edge_.size()) seq2edge_.resize(u + 1, -1);
    seq2edge_[u] = id;
    return id;
  }

  // Record a synthetic edge (hold splice, exception retirement) that has
  // no event of its own.
  std::int32_t record(const DepEdge& e) {
    edges_.push_back(e);
    return static_cast<std::int32_t>(edges_.size() - 1);
  }

  std::int32_t edge_of_seq(std::int64_t seq) const {
    const auto u = static_cast<std::size_t>(seq);
    return u < seq2edge_.size() ? seq2edge_[u] : -1;
  }

  void set_terminal(std::int32_t edge) { terminal_ = edge; }
  std::int32_t terminal() const { return terminal_; }
  const std::vector<DepEdge>& edges() const { return edges_; }

 private:
  std::vector<DepEdge> edges_;
  std::vector<std::int32_t> seq2edge_;
  std::int32_t terminal_ = -1;
};

// One hop of the realized critical path, in execution order (injection
// first, terminal last). Adjacent steps are contiguous:
// steps[i].to_tick == steps[i+1].from_tick.
struct PathStep {
  std::int64_t from_tick = 0;
  std::int64_t to_tick = 0;
  std::int32_t node = -1;
  std::int32_t from_phys = -1;
  std::int32_t to_phys = -1;
  PathCategory category = PathCategory::SerialTransit;
  std::uint8_t opcode = 0;

  std::int64_t ticks() const { return to_tick - from_tick; }
  bool operator==(const PathStep&) const = default;
};

struct AttributeOptions {
  // Collect the full step list and per-node/opcode/link aggregates.
  // Sweep-scale callers that only need the category vector turn this
  // off.
  bool detail = true;
  // Pre-lowered execution plan of the run being attributed (docs/PERF.md
  // "Execution kernel"). In detail mode, MeshTransit steps are spread
  // over the physical links of the plan's precomputed X-Y route spans.
  // Without a plan, or on a collapsed (Baseline) plan, which has no
  // meaningful route, link_ticks stays empty.
  const sim::ExecPlan* plan = nullptr;
};

// The answer: per-category tick totals over the realized critical path,
// plus (in detail mode) the path itself and per-node / per-opcode /
// per-physical-link slack aggregates. `valid` requires a terminal edge
// whose parent chain reaches tick 0 and whose segments sum exactly to
// `ticks`; callers additionally assert ticks == RunMetrics.ticks.
struct Attribution {
  bool valid = false;
  std::int64_t ticks = 0;
  std::array<std::int64_t, kNumPathCategories> category_ticks{};
  std::vector<PathStep> steps;
  // Linear instruction address -> on-path ticks attributed while that
  // node was the segment's destination/owner.
  std::map<std::int32_t, std::int64_t> node_ticks;
  // Opcode -> on-path Execution ticks.
  std::map<std::uint8_t, std::int64_t> opcode_ticks;
  // (source physical slot, LinkDir as uint8) -> on-path MeshTransit
  // ticks carried over that link — same key shape as
  // MetricsRegistry::mesh_link_load.
  std::map<std::pair<std::int32_t, std::uint8_t>, std::int64_t> link_ticks;

  std::int64_t total() const {
    std::int64_t s = 0;
    for (const std::int64_t v : category_ticks) s += v;
    return s;
  }
  bool operator==(const Attribution&) const = default;
};

// Reconstruct and attribute the realized critical path of the last
// recorded run. Returns valid=false when the run did not complete (no
// terminal), the chain is broken, or the segments fail to sum — callers
// treat that as "no attribution", never as zeros.
Attribution attribute(const FlightRecorder& fr,
                      const AttributeOptions& opts = {});

}  // namespace javaflow::obs
