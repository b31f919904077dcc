// Pre-lowered execution plans (docs/PERF.md "Execution kernel").
//
// An ExecPlan compiles everything the engine's hot loop used to chase
// pointers for — the method's dataflow graph, its chain placement, and
// the MachineConfig timing model — into one immutable, arena-backed
// image lowered once per (method, config):
//
//   * CSR consumer edge lists with the per-edge mesh delivery cost in
//     ticks (`serial_per_mesh × Manhattan`) and the X-Y route link span
//     already walked out, so telemetry replays links without touching
//     net::MeshNetwork;
//   * a CSR operand (producer) view of the same edges for the static
//     bound analyzer;
//   * dense per-node dispatch lanes: opcode, group, classification
//     flags (token buffering, ordered storage, backward goto, switch),
//     branch targets, Table 17 execution costs and ring service
//     surcharges in ticks, operand/fan-out capacities;
//   * the static branch classifications (sim::classify_branches), so a
//     plan-driven run never re-derives them.
//
// A plan is read-only after build: the sweep builds each plan once per
// method and config, in the worker lane that runs the method, and shares
// it across both branch scenarios, and serving residencies of one
// method share one plan through row shifts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bytecode/method.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"

namespace javaflow::sim {

// Bump whenever plan lowering changes in a way that can alter results
// produced through the plan path (edge costs, dispatch codes, branch
// classification). Folded into cache::record_fingerprint() so cached
// sweep records produced under older lowering semantics invalidate.
inline constexpr std::uint32_t kPlanFingerprint = 1;

// One forward dataflow arc, producer-major (CSR order follows the
// graph's consumers_of lists with back edges dropped, so the engine's
// mesh send order is unchanged).
struct PlanEdge {
  std::int32_t consumer = -1;
  std::int32_t to_phys = -1;
  std::int32_t delivery_ticks = 0;  // serial_per_mesh * mesh_cycles
  std::int32_t mesh_cycles = 0;     // Manhattan distance, min 1
  std::int32_t route_begin = 0;     // span into route_links()
  std::int16_t route_count = 0;
  std::uint8_t side = 0;
};

// The same arcs consumer-major, for the bound analyzer's per-side
// producer minimization.
struct PlanOperand {
  std::int32_t producer = -1;
  std::int32_t delivery_ticks = 0;
  std::uint8_t side = 0;
};

// One mesh link traversal of a precomputed X-Y route (x first, then y —
// the net::MeshNetwork::for_each_route_link order). `dir` is the
// obs::LinkDir value, so telemetry and attribution consume it directly.
struct PlanRouteLink {
  std::int32_t src_phys = -1;
  std::uint8_t dir = 0;
};

// Per-node classification flags.
inline constexpr std::uint8_t kPlanBuffers = 0x1;       // buffers_tokens
inline constexpr std::uint8_t kPlanOrdered = 0x2;       // ordered storage
inline constexpr std::uint8_t kPlanBackwardGoto = 0x4;  // goto, target<linear
inline constexpr std::uint8_t kPlanSwitch = 0x8;        // table/lookupswitch
inline constexpr std::uint8_t kPlanGoto = 0x10;         // goto/goto_w
inline constexpr std::uint8_t kPlanLocal = 0x20;        // local load/iinc/store

class ExecPlanBuilder;

// Immutable lowered image of (method × placement × MachineConfig). All
// lanes live in one contiguous arena; accessors hand out raw spans.
// Safe for concurrent read-only use from any number of threads.
class ExecPlan {
 public:
  ExecPlan() = default;
  ExecPlan(ExecPlan&&) noexcept = default;
  ExecPlan& operator=(ExecPlan&&) noexcept = default;
  ExecPlan(const ExecPlan&) = delete;
  ExecPlan& operator=(const ExecPlan&) = delete;

  bool fits() const noexcept { return fits_; }
  std::int32_t node_count() const noexcept { return node_count_; }
  std::int32_t max_slot() const noexcept { return max_slot_; }
  std::int32_t max_phys() const noexcept { return max_phys_; }
  std::int64_t serial_per_mesh() const noexcept { return k_; }
  std::int64_t hop_ticks() const noexcept { return hop_; }
  std::int32_t idus_per_node() const noexcept { return idus_; }
  bool collapsed() const noexcept { return collapsed_; }
  std::int32_t max_locals() const noexcept { return max_locals_; }

  // Ring service round trips in ticks, indexed by net::RingService.
  std::int64_t service_ticks(net::RingService s) const noexcept {
    return service_ticks_[static_cast<std::size_t>(s)];
  }

  // ---- per-node lanes (length node_count) ----
  const std::uint8_t* group() const noexcept { return group_; }
  const std::uint8_t* op() const noexcept { return op_; }
  const std::uint8_t* flags() const noexcept { return flags_; }
  const std::uint8_t* branch_kinds() const noexcept { return branch_kinds_; }
  const std::int32_t* pop_need() const noexcept { return pop_need_; }
  const std::int32_t* local_reg() const noexcept { return local_reg_; }
  const std::int32_t* slot() const noexcept { return slot_; }
  const std::int32_t* phys() const noexcept { return phys_; }
  const std::int32_t* target() const noexcept { return target_; }
  const std::int32_t* operand() const noexcept { return operand_; }
  const std::int32_t* exec_cost_ticks() const noexcept { return exec_cost_; }
  // Post-execution ring surcharge before results flow (bound analyzer):
  // memory_read for MemRead, gpp_service for Call/Special; 0 otherwise.
  const std::int32_t* produce_extra_ticks() const noexcept {
    return produce_extra_;
  }
  // Static capacities: widest operand side and forward fan-out.
  const std::int32_t* operand_hi() const noexcept { return operand_hi_; }
  const std::int32_t* forward_fanout() const noexcept {
    return forward_fanout_;
  }

  // ---- CSR consumer edges (producer-major) ----
  const std::int32_t* edge_begin() const noexcept { return edge_begin_; }
  const PlanEdge* edges() const noexcept { return edges_; }

  // ---- CSR operand edges (consumer-major) ----
  const std::int32_t* operand_begin() const noexcept { return oper_begin_; }
  const PlanOperand* operands() const noexcept { return opers_; }

  // ---- precomputed X-Y routes ----
  const PlanRouteLink* route_links() const noexcept { return route_links_; }

  // Serial-chain transit in ticks from one node's physical slot to
  // another's, mirroring the engine exactly: the bundle anchor sits at
  // virtual node -1, one hop below physical slot 0.
  std::int64_t serial_ticks_between(std::int32_t from_node,
                                    std::int32_t to_node) const noexcept {
    const std::int32_t a = from_node < 0 ? -1 : phys_[from_node];
    const std::int32_t b = phys_[to_node];
    const std::int64_t hops = a < 0 ? b + 1 : (a < b ? b - a : a - b);
    return hop_ * std::max<std::int64_t>(hops, 1);
  }

  // The route link span of the deduplicated (from_phys, to_phys) pair,
  // or an empty span for untraveled pairs. Inline (header-only) so
  // obs::critpath — which must not link javaflow_sim — can decompose
  // MeshTransit steps from a plan without re-walking the mesh.
  struct RouteSpan {
    const PlanRouteLink* links = nullptr;
    std::int32_t count = 0;
  };
  RouteSpan find_route(std::int32_t from_phys,
                       std::int32_t to_phys) const noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from_phys))
         << 32) |
        static_cast<std::uint32_t>(to_phys);
    const RoutePair* first = route_pairs_;
    const RoutePair* last = route_pairs_ + route_pair_count_;
    const RoutePair* it = std::lower_bound(
        first, last, key,
        [](const RoutePair& p, std::uint64_t k) { return p.key < k; });
    if (it == last || it->key != key) return RouteSpan{};
    return RouteSpan{route_links_ + it->begin, it->count};
  }

 private:
  friend class ExecPlanBuilder;

  struct RoutePair {
    std::uint64_t key = 0;  // (from_phys << 32) | to_phys
    std::int32_t begin = 0;
    std::int32_t count = 0;
  };

  // One contiguous arena backing every lane; capacity is monotonic when
  // a plan object is rebuilt in place (the builder reuses it like the
  // engine workspace reuses its event buffers).
  std::vector<std::byte> arena_;

  bool fits_ = false;
  bool collapsed_ = false;
  std::int32_t node_count_ = 0;
  std::int32_t max_slot_ = -1;
  std::int32_t max_phys_ = -1;
  std::int64_t k_ = 1;
  std::int64_t hop_ = 1;
  std::int32_t idus_ = 1;
  std::int32_t width_ = 10;
  std::int32_t max_locals_ = 0;
  std::int64_t service_ticks_[4] = {0, 0, 0, 0};
  std::int32_t route_pair_count_ = 0;

  const std::uint8_t* group_ = nullptr;
  const std::uint8_t* op_ = nullptr;
  const std::uint8_t* flags_ = nullptr;
  const std::uint8_t* branch_kinds_ = nullptr;
  const std::int32_t* pop_need_ = nullptr;
  const std::int32_t* local_reg_ = nullptr;
  const std::int32_t* slot_ = nullptr;
  const std::int32_t* phys_ = nullptr;
  const std::int32_t* target_ = nullptr;
  const std::int32_t* operand_ = nullptr;
  const std::int32_t* exec_cost_ = nullptr;
  const std::int32_t* produce_extra_ = nullptr;
  const std::int32_t* operand_hi_ = nullptr;
  const std::int32_t* forward_fanout_ = nullptr;
  const std::int32_t* edge_begin_ = nullptr;
  const PlanEdge* edges_ = nullptr;
  const std::int32_t* oper_begin_ = nullptr;
  const PlanOperand* opers_ = nullptr;
  const PlanRouteLink* route_links_ = nullptr;
  const RoutePair* route_pairs_ = nullptr;
};

// Lowers (method, graph, placement, config) into an ExecPlan. Scratch
// buffers grow monotonically over the builder's lifetime, so a reused
// builder (one per sweep lane, one per engine workspace) stops paying
// allocation costs after the first few methods.
class ExecPlanBuilder {
 public:
  // `placement` may be null: the builder then places the method itself
  // (fabric::load_method on a fresh fabric, exactly what the engine's
  // no-placement overload does).
  void build_into(ExecPlan& out, const bytecode::Method& m,
                  const fabric::DataflowGraph& graph,
                  const fabric::Placement* placement,
                  const MachineConfig& config);

  ExecPlan build(const bytecode::Method& m,
                 const fabric::DataflowGraph& graph,
                 const fabric::Placement* placement,
                 const MachineConfig& config) {
    ExecPlan plan;
    build_into(plan, m, graph, placement, config);
    return plan;
  }

 private:
  // Route-dedup scratch: unique (from_phys, to_phys) pairs in first-use
  // order plus their link spans, rebuilt per method, capacity kept.
  std::vector<ExecPlan::RoutePair> pairs_;
  std::vector<PlanRouteLink> links_;
  std::vector<PlanEdge> edges_;
  std::vector<std::int32_t> edge_begin_;
  std::vector<PlanOperand> opers_;
  std::vector<std::int32_t> oper_begin_;
  std::vector<std::int32_t> oper_fill_;
};

}  // namespace javaflow::sim
