// Shared internals of the event-driven execution core: the token/event
// records, per-node cold state, and calendar-queue constants used by
// both the single-method Engine (sim/engine.cpp) and the multi-tenant
// MultiEngine (sim/multi_engine.cpp). Not installed API — everything
// here may change shape between commits; include only from sim/*.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "bytecode/opcode.hpp"
#include "net/message.hpp"
#include "sim/config.hpp"

namespace javaflow::sim::detail {

inline bool is_switch(bytecode::Op op) {
  return op == bytecode::Op::tableswitch || op == bytecode::Op::lookupswitch;
}

// The slice of a net::SerialMessage the engine actually routes: every
// other field stays at its default through the whole simulation, so
// events and held tokens carry just {cmd, reg} instead of the full
// Figure 16 record.
struct Token {
  net::Command cmd = net::Command::HeadToken;
  std::int32_t reg = -1;
};

// Firing-state bitmask (struct-of-arrays `state` lane). A node is
// fire-ready only in the exact state kHeadReceived — any other set bit
// (already fired, executing, waiting on a ring service, or holding the
// loop bundle for a fired backward transfer) blocks it, so the hot
// readiness test is a single byte compare.
inline constexpr std::uint8_t kHeadReceived = 0x1;
inline constexpr std::uint8_t kFired = 0x2;
inline constexpr std::uint8_t kExecuting = 0x4;
inline constexpr std::uint8_t kInService = 0x8;
// Back transfer fired, bundle held until the TAIL arrives (§6.3). Only
// ever set together with kFired, so the kHeadReceived readiness compare
// is unaffected.
inline constexpr std::uint8_t kWaitTailFlush = 0x10;

// Cold per-node runtime state (wraps the Figure 13 resources). All
// static classification lives in read-only lanes — fed by the ExecPlan
// on the plan path, by prepare_node() on the legacy path — so this
// struct carries only mutable per-iteration token state.
struct NodeRt {
  bool reg_held = false;        // LocalRead/LocalInc captured its token
  Token held_reg{};
  bool write_absorbed = false;  // LocalWrite consumed the stale token
  bool kill_next_register = false;
  bool memory_held = false;     // ordered storage holds MEMORY_TOKEN
  Token held_memory{};
  bool tail_held = false;       // non-control node holding the TAIL
  Token held_tail{};
  bool tail_present = false;    // control node has TAIL in its buffer
  std::int32_t decided_target = -1;

  std::vector<Token> buffered;  // control-node token buffer

  // Flight-recorder bookkeeping (null recorder leaves all of it idle):
  // the dependency edge that delivered each currently-held token, so its
  // eventual release can splice a hold edge (operand wait / TAIL hold)
  // between arrival and release. `buffered_edges` parallels `buffered`.
  std::int32_t held_reg_edge = -1;
  std::int32_t held_memory_edge = -1;
  std::int32_t held_tail_edge = -1;
  std::vector<std::int32_t> buffered_edges;

  // `buffered` keeps its capacity across iterations and runs, so a
  // reused workspace stops paying for operand-buffer growth after the
  // first run.
  void reset_cold() {
    reg_held = false;
    write_absorbed = false;
    kill_next_register = false;
    memory_held = false;
    tail_held = false;
    tail_present = false;
    decided_target = -1;
    buffered.clear();
    held_reg_edge = -1;
    held_memory_edge = -1;
    held_tail_edge = -1;
    buffered_edges.clear();
  }
};

enum class EvKind : std::uint8_t { Serial, Mesh, ExecDone, ServiceDone };

// 32-byte event record. `aux` is the serial register number (Serial) or
// the consumer's iteration epoch (Mesh); the old full-SerialMessage
// payload is gone because the engine only ever read {cmd, reg}. `prod`
// is the producing node of a Mesh operand — it rides in what used to be
// padding and feeds the tracer's producer->consumer flow events.
//
// `res` is the dense ResidentId of the token's owning method residency:
// always 0 in single-method runs, threaded through every handler by the
// multi-tenant MultiEngine so co-resident bundles interleave in one
// (tick, seq) calendar. Packing the EvKind (2 bits) with the mesh side
// (6 bits — the widest operand side is an invoke's argument count, well
// under 64) frees the 16 bits the id needs without growing the record
// past two cache quads.
struct Event {
  std::int64_t tick = 0;
  std::int64_t seq = 0;
  std::int32_t node = -1;
  std::int32_t aux = 0;
  std::int32_t prod = -1;            // Mesh only
  std::uint16_t res = 0;             // owning residency (0 = single run)
  std::uint8_t kind_side = 0;        // EvKind | (mesh side << 2)
  net::Command cmd = net::Command::HeadToken;  // Serial only

  EvKind kind() const noexcept {
    return static_cast<EvKind>(kind_side & 0x3u);
  }
  std::uint8_t side() const noexcept {
    return static_cast<std::uint8_t>(kind_side >> 2);
  }
  void set(EvKind k, std::uint8_t side = 0) noexcept {
    kind_side = static_cast<std::uint8_t>(static_cast<std::uint8_t>(k) |
                                          (side << 2));
  }
};
static_assert(sizeof(Event) == 32, "Event should stay two cache quads");

// Min-heap comparator over (tick, seq). (tick, seq) is a strict total
// order — seq is unique — so the pop order is deterministic regardless
// of the heap's internal layout. The calendar queue reproduces exactly
// this order (docs/PERF.md "Engine kernel" has the argument).
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.tick, a.seq) > std::tie(b.tick, b.seq);
  }
};

// Largest per-group execution cost in mesh cycles (Table 17: FpArith).
inline constexpr std::int64_t kMaxExecMeshCycles = 10;
// Calendar-ring ceiling: beyond this, long delays spill to the overflow
// heap rather than growing the bucket array without bound.
inline constexpr std::int64_t kMaxBuckets = 4096;

// Calendar-ring size for one plan: the smallest power of two (at least
// one 64-bit occupancy word, at most kMaxBuckets) above the largest
// bounded delay the model can emit for it — serial chain traversal plus
// bundle spacing, a corner-to-corner mesh route, the costliest
// execution group, and the slowest ring service. Delays beyond the ring
// (long forward jumps on big methods once the ring is capped, or waits
// behind another residency's traffic) spill to the overflow heap, so
// the size is a performance knob, never a correctness one.
inline std::int64_t calendar_buckets(const MachineConfig& cfg,
                                     std::int64_t max_phys,
                                     std::int64_t max_locals) {
  const std::int64_t k = cfg.serial_per_mesh;
  const std::int64_t hop = cfg.collapsed() ? 0 : 1;
  const std::int64_t chain = max_phys + 1;
  const std::int64_t width = std::max(cfg.width, 1);
  const std::int64_t rows = (chain + width - 1) / width;
  std::int64_t h = hop * (chain + 1) + max_locals + 3;
  h = std::max(h, k * (width + rows));
  h = std::max(h, k * kMaxExecMeshCycles);
  const net::RingLatencies& rl = cfg.ring;
  h = std::max(h, k * std::max({rl.memory_read, rl.memory_write,
                                rl.constant_read, rl.gpp_service}));
  const std::int64_t cap = std::min<std::int64_t>(h + 1, kMaxBuckets);
  std::int64_t b = 64;
  while (b < cap) b <<= 1;
  return b;
}

}  // namespace javaflow::sim::detail
