// The execution kernel: the one implementation of the paper's §6.3
// token-bundle semantics, the Table 17 / Figure 25 timing model and the
// (tick, seq) event calendar. Not installed API — include only from
// sim/*.cpp.
//
// detail::Kernel is specialized at compile time on two flags:
//
//   * kShared — the serving kernel behind sim::MultiEngine: N residencies
//     on one calendar, node lanes offset per residency, and fabric-level
//     overlap accounting. Residencies are row-private (admit() refuses a
//     residency on a row of an unfinished one), so serial and mesh transit
//     is the solo closed form and only the four ring channels are
//     occupancy-tracked; co-resident flows contend there and for
//     execution units. The drain loop looks an event's residency up once.
//     A residency that has finished and whose events have all drained is
//     reclaimed: its residency-table row, predictor and node-lane window
//     go on free lists for the next admission, so memory follows the live
//     residencies, not the admission count (docs/SERVING.md "Residency
//     lifecycle"). The solo instantiation behind sim::Engine runs exactly
//     one residency per run(): no residency lookup, no ring occupancy,
//     and a reset that keeps every lane's and bucket's capacity across
//     runs.
//   * kInstr — the telemetry hooks (obs::MetricsRegistry, EventTracer,
//     FlightRecorder) and exception injection. Solo only; without it
//     every hook folds to a constant and the hot path carries no
//     instrumentation branch, the drain loop forwards tokens that cross
//     their node untouched without dispatching them, and calendar
//     buckets hold 16-byte Slots instead of 32-byte Events.
//
// The solo kernel without hooks also fast-forwards loops: once a latch's
// period has repeated exactly, state and branch decisions included, it
// jumps over the periods the predictor's counters say will repeat too
// (docs/PERF.md "Loop fast-forward"). The other two instantiations
// simulate every event and are its reference.
//
// A residency that never waits on a ring channel or an execution unit
// times exactly like a solo run, so a lone MultiEngine residency
// reproduces Engine::run bit for bit (tests/test_serve.cpp
// MultiEngineParity).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bytecode/opcode.hpp"
#include "net/message.hpp"
#include "obs/critpath.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "sim/plan.hpp"

namespace javaflow::sim::detail {

// The slice of a Figure 16 serial message the engine actually routes:
// every other field stays at its default through the whole simulation,
// so events and held tokens carry just {cmd, reg}.
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
// static classification lives in the ExecPlan's read-only lanes, so
// this struct carries only mutable per-iteration token state.
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
  // reused kernel stops paying for operand-buffer growth after the
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

// An event without its (tick, seq) key: 16 bytes. `aux` is the serial
// register number (Serial) or the consumer's iteration epoch (Mesh).
// `prod` is the producing node of a Mesh operand — it feeds the
// tracer's producer->consumer flow events.
//
// `res` is the owning residency's row in the kernel's residency table:
// always 0 in solo runs, threaded through every handler by the shared
// kernel so co-resident bundles interleave in one (tick, seq) calendar.
// It is not the ResidentId — rows are recycled once a residency has
// finished and its last event has drained, so no event ever outlives
// the row it names. Packing the EvKind (2 bits) with the mesh side (6
// bits — the widest operand side is an invoke's argument count, well
// under 64) frees the 16 bits the row needs without growing the slot
// past one cache quad.
//
// The uninstrumented kernels' calendar buckets hold bare Slots: the
// bucket is the tick and position in the bucket is seq order, so the
// key is implicit.
struct Slot {
  std::int32_t node = -1;
  std::int32_t aux = 0;
  std::int32_t prod = -1;            // Mesh only
  std::uint16_t res = 0;             // owner's row (0 = solo run)
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
static_assert(sizeof(Slot) == 16, "Slot should stay one cache quad");

// A Slot with its (tick, seq) key: 32 bytes. The overflow heap orders
// these, and the instrumented kernel's buckets keep them because the
// flight recorder looks dependency edges up by seq.
struct Event : Slot {
  std::int64_t tick = 0;
  std::int64_t seq = 0;
};
static_assert(sizeof(Event) == 32, "Event should stay two cache quads");

// Min-heap comparator over (tick, seq) for the overflow spill. (tick,
// seq) is a strict total order — seq is unique — so the pop order is
// deterministic regardless of the heap's internal layout.
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

// Sentinel `parent` for schedule(): attach the new dependency edge to
// the event currently being dispatched (flight recorder only).
inline constexpr std::int32_t kParentCurrent = -2;
// `from` sentinel for send_serial: the owning residency's bundle anchor
// (one physical hop below the residency's first row).
inline constexpr std::int32_t kFromAnchor = -1;

template <bool kInstr, bool kShared>
class Kernel {
  static_assert(!(kInstr && kShared),
                "the serving kernel carries no telemetry hooks");

  // The loop fast-forward's instantiation: solo, without hooks.
  static constexpr bool kFastForward = !kInstr && !kShared;

 public:
  static constexpr std::int64_t kNoLimit = MultiEngine::kNoLimit;

  // Solo kernels take max_ticks, the hooks and exception injection from
  // `options`; the shared kernel reads only max_ticks.
  Kernel(MachineConfig config, const EngineOptions& options)
      : cfg_(std::move(config)),
        opt_(options),
        k_(cfg_.serial_per_mesh),
        hop_(cfg_.collapsed() ? 0 : 1),
        idus_(std::max(cfg_.idus_per_node, 1)) {
    if constexpr (kShared) grow_ring(kMinRing);
  }

  const MachineConfig& config() const noexcept { return cfg_; }

  // ---- solo ----

  // Runs one method to completion, timeout, or a drained calendar. The
  // plan must fit (Engine::run answers unfit plans itself).
  RunMetrics run(const bytecode::Method& m, const ExecPlan& plan,
                 BranchPredictor& predictor) {
    static_assert(!kShared);
    predictor_ = &predictor;
    reset(m, plan);
    ResidentRt& r = add_resident(m, plan, /*phys_delta=*/0, /*start=*/0);
    inject_bundle(r);
    advance(kNoLimit);
    // A drained calendar leaves the run neither completed nor timed out.
    if (!r.done) finalize_resident(r);
    if (mx() != nullptr) ++mx()->runs;
    return metrics_of(r);
  }

  // ---- shared ----

  // See MultiEngine::admit: -1 only for an unfit plan; a fitting plan
  // on a row of an unfinished residency, or past the live-residency cap,
  // throws before anything changes.
  ResidentId admit(const bytecode::Method& m, const ExecPlan& plan,
                   std::int32_t phys_delta,
                   BranchPredictor::Scenario scenario,
                   std::int64_t start_tick) {
    static_assert(kShared);
    if (!plan.fits()) return -1;
    const RowSpan rows = rows_of(phys_delta, plan);
    for (const ResidentRt& o : residents_) {
      if (!o.done && rows.meets(rows_of(o.phys_delta, *o.plan))) {
        throw std::invalid_argument(
            "MultiEngine: a residency's rows overlap those of a residency "
            "that has not finished");
      }
    }
    if (free_rows_.empty() &&
        residents_.size() >=
            static_cast<std::size_t>(MultiEngine::kMaxResidents)) {
      throw std::length_error(
          "MultiEngine: more than kMaxResidents residencies live at once");
    }
    if (outcomes_.size() >=
        static_cast<std::size_t>(std::numeric_limits<ResidentId>::max())) {
      throw std::length_error("MultiEngine: ResidentId space exhausted");
    }
    grow_ring(calendar_buckets(cfg_, plan.max_phys(), m.max_locals));
    ResidentRt& r = add_resident(m, plan, phys_delta,
                                 std::max(start_tick, cal_cur_));
    if (r.row == predictors_.size()) {
      predictors_.emplace_back(scenario);
    } else {
      predictors_[r.row] = BranchPredictor(scenario);
    }
    ensure_phys(plan.max_phys() + phys_delta);
    outcomes_.emplace_back();
    outcomes_.back().admitted_tick = r.inject_tick;
    ++running_;
    inject_bundle(r);
    return r.id;
  }

  // Processes events in (tick, seq) order while tick < until; see
  // MultiEngine::advance. Solo runs call it once with kNoLimit.
  std::optional<ResidentId> advance(std::int64_t until) {
    while (true) {
      if (completion_pending()) {
        if constexpr (kShared) {
          const ResidentId id = completed_queue_.front();
          completed_queue_.pop_front();
          return id;
        } else {
          return 0;
        }
      }
      if (live_events_ == 0) {
        if constexpr (kShared) {
          if (running_ > 0) {
            // Drained with residencies still running: no token can ever
            // reach them again, so they end here, timed out.
            time_out_running();
            continue;
          }
          // Fully drained: whatever sits in the cursor's bucket is a
          // consumed prefix. Clear it and rewind bucket_pos before the
          // cursor jumps — otherwise an admission at the idle tick
          // inserts its bundle below the stale cursor and is never
          // dispatched.
          clear_bucket(static_cast<std::size_t>(cal_cur_ & bucket_mask_));
          bucket_pos_ = 0;
          if (until != kNoLimit && until > cal_cur_) move_cursor(until);
        }
        return std::nullopt;
      }
      if (kShared && cal_cur_ >= until) return std::nullopt;

      // Drain tick after tick. A completion returns mid-tick with the
      // cursor still here, so an admission it triggers starts this tick.
      // The index scan tolerates the bucket growing underneath it:
      // zero-delay events land on the current tick, always behind the
      // scan point.
      std::size_t pos = bucket_pos_;
      while (true) {
        const auto bix = static_cast<std::size_t>(cal_cur_ & bucket_mask_);
        std::vector<Record>& bucket = buckets_[bix];
        now_ = cal_cur_;
        const std::size_t first = pos;
        while (pos < bucket.size()) {
          const Record ev = bucket[pos++];
          ResidentRt& r = resident(ev.res);
          if constexpr (kShared) {
            --r.pending;
            if (r.done) [[unlikely]] {
              drop_stale(r, ev);
              continue;
            }
          }
          if constexpr (!kInstr) {
            if (forward_untouched(r, ev)) continue;
          }
          dispatch(r, ev);
          if (completion_pending()) [[unlikely]] break;
        }
        live_events_ -= static_cast<std::int64_t>(pos - first);
        if (completion_pending() || live_events_ == 0) {
          bucket_pos_ = pos;
          break;
        }

        // Tick drained: step to the next tick when it has events (spilled
        // ticks all lie past the window), else jump to the next pending
        // tick (occupancy-bitmap scan vs. the overflow front).
        bucket.clear();
        cal_words_[bix >> 6] &= ~(std::uint64_t{1} << (bix & 63));
        pos = 0;
        bucket_pos_ = 0;
        if constexpr (kFastForward) {
          if (ff_.flushed != kFfNone) [[unlikely]] ff_tick();
        }
        std::int64_t next = cal_cur_ + 1;
        if (buckets_[static_cast<std::size_t>(next & bucket_mask_)].empty()) {
          next = next_bucket_tick();
          if (!overflow_.empty() && overflow_.front().tick < next) {
            next = overflow_.front().tick;
          }
        }
        if (kShared && next >= until) {
          move_cursor(until);
          return std::nullopt;
        }
        if (next > opt_.max_ticks) {
          timeout_all(next);
          break;
        }
        move_cursor(next);
      }
    }
  }

  // Solo: the latest run()'s work counters.
  const RunWork& work() const noexcept {
    static_assert(!kShared);
    return work_;
  }

  bool idle() const noexcept { return live_events_ == 0; }
  std::int64_t now() const noexcept { return cal_cur_; }
  std::size_t resident_count() const noexcept { return outcomes_.size(); }
  std::size_t running_count() const noexcept { return running_; }
  std::size_t lane_count() const noexcept { return nodes_.size(); }

  // An outcome is filled, and its `resident` field set, when the
  // residency finishes.
  const ResidentOutcome* outcome(ResidentId r) const noexcept {
    if (r < 0 || static_cast<std::size_t>(r) >= outcomes_.size()) {
      return nullptr;
    }
    const ResidentOutcome& out = outcomes_[static_cast<std::size_t>(r)];
    return out.resident == r ? &out : nullptr;
  }

  MultiRunMetrics finish() {
    static_assert(kShared);
    for (ResidentRt& r : residents_) {
      if (!r.done) finalize_resident(r);
    }
    flush_fabric_accounting();
    MultiRunMetrics agg;
    agg.fabric_ticks = now_;
    agg.ticks_exec_1plus = fab_acc1_;
    agg.ticks_exec_2plus = fab_acc2_;
    agg.ticks_res_1plus = res_acc1_;
    agg.ticks_res_2plus = res_acc2_;
    // A residency's wait stops growing when it finishes, so its outcome
    // holds its final total (its row may serve someone else by now).
    for (const ResidentOutcome& out : outcomes_) {
      agg.ring_wait_ticks += out.ring_wait_ticks;
    }
    agg.residents = std::move(outcomes_);
    return agg;
  }

 private:
  // One residency: a method's plan anchored at `base` in the global
  // node lanes (0 in solo runs) and shifted by `phys_delta` physical
  // nodes (a whole-row shift, docs/SERVING.md). Shared: `id` is the
  // ResidentId (the admission index, never reused — outcomes and
  // transport occupancy are keyed by it) and `row` this record's index
  // in residents_, which the events carry and which is recycled.
  struct ResidentRt {
    const bytecode::Method* method = nullptr;
    const ExecPlan* plan = nullptr;
    // The plan's static lanes, indexed by the method-local node id.
    const std::uint8_t* group = nullptr;
    const std::uint8_t* op = nullptr;
    const std::uint8_t* flags = nullptr;
    const std::uint8_t* branch_kinds = nullptr;
    const std::int32_t* pop_need = nullptr;
    const std::int32_t* local_reg = nullptr;
    const std::int32_t* phys = nullptr;
    const std::int32_t* target = nullptr;
    const std::int32_t* operand = nullptr;
    const std::int32_t* exec_cost = nullptr;
    const std::int32_t* edge_begin = nullptr;
    const PlanEdge* edges = nullptr;
    const PlanRouteLink* route_links = nullptr;
    std::int32_t id = 0;
    std::int32_t base = 0;   // first global node lane
    std::int32_t count = 0;  // node lanes owned
    std::int32_t phys_delta = 0;
    std::int32_t slot_delta = 0;
    std::int64_t inject_tick = 0;
    bool done = false;
    bool completed = false;
    bool timed_out = false;
    bool exception = false;  // EXCEPTION_TOKEN raised (instrumented)
    std::uint16_t row = 0;
    std::int64_t end_tick = 0;
    // RunMetrics accumulators.
    std::int64_t fired = 0;
    std::int64_t mesh_msgs = 0;
    std::int64_t serial_msgs = 0;
    int active_exec = 0;
    // Shared: this residency's events still in a bucket or the spill.
    std::int32_t pending = 0;
    std::int64_t last_change = 0;
    std::int64_t acc1 = 0;
    std::int64_t acc2 = 0;
    // Ring-channel contention charged to this residency (shared).
    std::int64_t ring_wait = 0;

    bool flag(std::int32_t l, std::uint8_t f) const {
      return (flags[l] & f) != 0;
    }
    bytecode::Group group_of(std::int32_t l) const {
      return static_cast<bytecode::Group>(group[l]);
    }
  };

  struct Occupancy {
    std::int32_t owner = -1;
    std::int64_t busy_until = 0;
  };

  // The fabric rows a residency's transport can touch: from the row of
  // the serial link its bundle enters by (into physical node phys_delta)
  // to the row of its last node. Its chain segment and its X-Y mesh
  // routes stay inside them.
  struct RowSpan {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    bool meets(const RowSpan& o) const { return lo <= o.hi && o.lo <= hi; }
  };
  RowSpan rows_of(std::int32_t phys_delta, const ExecPlan& plan) const {
    const std::int32_t w = std::max(cfg_.width, 1);
    return {phys_delta / w, (phys_delta + plan.max_phys()) / w};
  }

  // Ring size before the first admission: one occupancy word.
  static constexpr std::int64_t kMinRing = 64;

  // Telemetry access, folded to null constants when !kInstr so every
  // guarded site is dead code.
  obs::MetricsRegistry* mx() const { return kInstr ? opt_.metrics : nullptr; }
  obs::EventTracer* tr() const { return kInstr ? opt_.tracer : nullptr; }
  obs::FlightRecorder* fr() const { return kInstr ? opt_.flight : nullptr; }

  // Solo residencies sit at lane 0 and physical node 0, so their global
  // and local indices coincide and physical nodes come straight from
  // the plan; shared ones read the lane frozen at admission (a finished
  // residency's stale events must never touch plan memory).
  std::int32_t base(const ResidentRt& r) const { return kShared ? r.base : 0; }
  std::int32_t local(const ResidentRt& r, std::int32_t g) const {
    return g - base(r);
  }
  std::int32_t phys_of(const ResidentRt& r, std::int32_t g) const {
    if constexpr (kShared) {
      return phys_lane_[static_cast<std::size_t>(g)];
    } else {
      return r.phys[g];
    }
  }
  ResidentRt& resident(std::uint16_t res) {
    if constexpr (kShared) {
      return residents_[res];
    } else {
      return residents_.front();
    }
  }
  // The Slot::res an event of `r` carries.
  std::uint16_t row(const ResidentRt& r) const { return kShared ? r.row : 0; }
  BranchPredictor& predictor(const ResidentRt& r) {
    if constexpr (kShared) {
      return predictors_[r.row];
    } else {
      return *predictor_;
    }
  }
  bool completion_pending() const {
    if constexpr (kShared) {
      return !completed_queue_.empty();
    } else {
      return residents_.front().done;
    }
  }

  // ---- set-up ----

  ResidentRt& add_resident(const bytecode::Method& m, const ExecPlan& plan,
                           std::int32_t phys_delta,
                           std::int64_t inject_tick) {
    ResidentRt r;
    r.method = &m;
    r.plan = &plan;
    r.group = plan.group();
    r.op = plan.op();
    r.flags = plan.flags();
    r.branch_kinds = plan.branch_kinds();
    r.pop_need = plan.pop_need();
    r.local_reg = plan.local_reg();
    r.phys = plan.phys();
    r.target = plan.target();
    r.operand = plan.operand();
    r.exec_cost = plan.exec_cost_ticks();
    r.edge_begin = plan.edge_begin();
    r.edges = plan.edges();
    r.route_links = plan.route_links();
    r.count = plan.node_count();
    r.phys_delta = phys_delta;
    r.slot_delta = phys_delta * idus_;
    r.inject_tick = inject_tick;
    r.last_change = inject_tick;

    if constexpr (kShared) {
      r.id = static_cast<std::int32_t>(outcomes_.size());
      r.row = take_row();
      r.base = take_window(r.count);
    } else {
      r.id = static_cast<std::int32_t>(residents_.size());
      r.base = 0;
    }
    for (std::int32_t i = 0; i < r.count; ++i) {
      const auto u = static_cast<std::size_t>(r.base + i);
      fwd_[u] = r.base + i + 1;
      if constexpr (kShared) {
        phys_lane_[u] = plan.phys()[i] + phys_delta;
        res_of_[u] = r.row;
      }
    }
    if constexpr (kShared) {
      residents_[r.row] = r;
      return residents_[r.row];
    } else {
      residents_.push_back(r);
      return residents_.back();
    }
  }

  // ---- residency recycling (shared) ----
  //
  // A residency is reclaimed once it is done and none of its events
  // remains in a bucket or the spill (`pending` == 0): schedule() counts
  // its events up and the drain loop counts them down as it consumes or
  // drops them. From then on no event can name its row or lanes, so the
  // next admission can take them over. Transport occupancy stays keyed
  // by the never-reused ResidentId, because a reservation can outlive
  // its residency's events: a posted MemoryWrite reserves a ring channel
  // without scheduling anything, and a tick budget drops events whose
  // links stay reserved.

  // A free residency-table row, or a new one.
  std::uint16_t take_row() {
    if (!free_rows_.empty()) {
      const std::uint16_t row = free_rows_.back();
      free_rows_.pop_back();
      return row;
    }
    residents_.emplace_back();
    return static_cast<std::uint16_t>(residents_.size() - 1);
  }

  // The first lane of a `count`-lane window: a reclaimed window of
  // exactly that size, reset to a fresh residency's state (each node
  // keeps its operand buffer's capacity), or new zeroed lanes at the
  // end. fwd_, phys_lane_ and res_of_ are the caller's to fill.
  std::int32_t take_window(std::int32_t count) {
    std::vector<std::int32_t>& spare = free_windows_[count];
    if (spare.empty()) {
      const auto base = static_cast<std::int32_t>(nodes_.size());
      const auto end = static_cast<std::size_t>(base + count);
      nodes_.resize(end);
      state_.resize(end, 0);
      pops_.resize(end, 0);
      epoch_.resize(end, 0);
      fwd_.resize(end);
      distinct_.resize(end, 0);
      res_of_.resize(end);
      phys_lane_.resize(end);
      return base;
    }
    const std::int32_t base = spare.back();
    spare.pop_back();
    for (std::int32_t g = base; g < base + count; ++g) {
      const auto u = static_cast<std::size_t>(g);
      nodes_[u].reset_cold();
      state_[u] = 0;
      pops_[u] = 0;
      epoch_[u] = 0;
      distinct_[u] = 0;
    }
    return base;
  }

  // Puts a finished, drained residency's row and lane window on the free
  // lists. Its lanes may still wait in an execution unit's pending-fire
  // queue; release_execution_unit would skip them (their owner is done)
  // without side effects, so removing them now changes nothing — and
  // keeps a later owner of the window from inheriting them.
  void reclaim(const ResidentRt& r) {
    const std::int32_t end = r.base + r.count;
    if (idus_ > 1) {
      for (std::int32_t g = r.base; g < end; ++g) {
        std::erase_if(
            pending_fire_[static_cast<std::size_t>(
                phys_lane_[static_cast<std::size_t>(g)])],
            [&](std::int32_t n) { return n >= r.base && n < end; });
      }
    }
    free_windows_[r.count].push_back(r.base);
    free_rows_.push_back(r.row);
  }

  // Shared drain-loop step for an event of a finished residency, already
  // counted off it: drops the event — except that a still-in-flight
  // execution completion must free its Instruction Execution Unit
  // (shared with later co-residents) and close the fabric-level overlap
  // span it holds. The last of a finished residency's events reclaims
  // it.
  void drop_stale(ResidentRt& r, const Slot& ev) {
    if (ev.kind() == EvKind::ExecDone) {
      state_[static_cast<std::size_t>(ev.node)] &=
          static_cast<std::uint8_t>(~kExecuting);
      exec_delta(r, -1);
      release_execution_unit(r, ev.node);
    }
    if (r.pending == 0) reclaim(r);
  }

  // Solo reset: every lane and bucket keeps its capacity (and every
  // node its operand buffer's), seq restarts at 0, and the ring window
  // is sized for this plan.
  void reset(const bytecode::Method& m, const ExecPlan& plan) {
    if (fr() != nullptr) fr()->reset();
    cur_edge_ = -1;
    exception_fires_ = 0;
    work_ = RunWork{};
    if constexpr (kFastForward) ff_begin();
    seq_ = 0;
    now_ = 0;
    cal_cur_ = 0;
    bucket_pos_ = 0;
    live_events_ = 0;

    ring_size_ = calendar_buckets(cfg_, plan.max_phys(), m.max_locals);
    bucket_mask_ = ring_size_ - 1;
    if (buckets_.size() < static_cast<std::size_t>(ring_size_)) {
      buckets_.resize(static_cast<std::size_t>(ring_size_));
      cal_words_.resize(buckets_.size() >> 6, 0);
    }
    // A finished run can leave undrained events behind, but only in
    // buckets whose occupancy bit is still set — clear exactly those
    // instead of sweeping the whole ring.
    drop_pending();

    const auto nn = static_cast<std::size_t>(plan.node_count());
    residents_.clear();
    nodes_.resize(nn);
    for (NodeRt& n : nodes_) n.reset_cold();
    state_.assign(nn, 0);
    pops_.assign(nn, 0);
    epoch_.assign(nn, 0);
    fwd_.resize(nn);  // add_resident() fills it
    distinct_.assign(nn, 0);
    const auto np = static_cast<std::size_t>(plan.max_phys() + 1);
    exec_busy_.assign(np, 0);
    if (pending_fire_.size() < np) pending_fire_.resize(np);
    for (std::size_t p = 0; p < np; ++p) pending_fire_[p].clear();
    if (mx() != nullptr) {
      head_tick_.assign(nn, -1);
      tail_hold_.assign(nn, -1);
    }
    if (fr() != nullptr) node_ready_edge_.assign(nn, -1);
  }

  void ensure_phys(std::int32_t max_phys_global) {
    const auto want = static_cast<std::size_t>(max_phys_global + 2);
    if (exec_busy_.size() < want) {
      exec_busy_.resize(want, 0);
      pending_fire_.resize(want);
    }
  }

  void inject_bundle(ResidentRt& r) {
    const std::int64_t spacing = hop_ == 0 ? 0 : 1;
    std::int64_t idx = 0;
    now_ = r.inject_tick;
    const std::int32_t head = base(r);
    send_serial(r, kFromAnchor, head, Token{net::Command::HeadToken, -1},
                spacing * idx++);
    send_serial(r, kFromAnchor, head, Token{net::Command::MemoryToken, -1},
                spacing * idx++);
    for (std::int32_t reg = 0; reg < r.method->max_locals; ++reg) {
      send_serial(r, kFromAnchor, head,
                  Token{net::Command::RegisterToken, reg}, spacing * idx++);
    }
    send_serial(r, kFromAnchor, head, Token{net::Command::TailToken, -1},
                spacing * idx++);
  }

  // ---- calendar ----
  //
  // Invariant: every bucket holds the events of one tick in
  // [cal_cur, cal_cur + ring_size) in seq order, and the overflow heap
  // holds only ticks at or past the window's end — every cursor move
  // and every ring growth migrates the spill the window now covers, and
  // seq grows monotonically with scheduling time. So events come out in
  // ascending (tick, seq), the order docs/PERF.md argues for.

  // What a bucket holds: a bare Slot, or the whole Event when the flight
  // recorder may need its seq.
  using Record = std::conditional_t<kInstr, Event, Slot>;

  [[gnu::always_inline]] inline void bucket_insert(std::int64_t tick,
                                                   std::int64_t seq,
                                                   const Slot& s) {
    const auto bi = static_cast<std::size_t>(tick & bucket_mask_);
    if constexpr (kInstr) {
      buckets_[bi].push_back(Event{s, tick, seq});
    } else {
      buckets_[bi].push_back(s);
    }
    cal_words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
  }

  // Schedules residency r's event `s` (its `res` is set here). Every
  // schedule site names the delay category its event represents; with
  // the recorder attached, one dependency edge is captured per event.
  // `parent` kParentCurrent means "the event being dispatched right now"
  // (cur_edge_); hold-release sites pass an explicit splice edge instead.
  // Without a recorder the extra arguments are dead. Force-inlined, so
  // the Slot is built in place in its bucket.
  [[gnu::always_inline]] inline void schedule(
      ResidentRt& r, std::int64_t tick, Slot s, obs::PathCategory cat,
      std::int32_t parent = kParentCurrent, std::int32_t from_phys = -1,
      std::int32_t to_phys = -1, std::uint8_t opcode = 0) {
    const std::int64_t seq = seq_++;
    if (fr() != nullptr) {
      fr()->record_event(
          seq, {now_, tick, parent == kParentCurrent ? cur_edge_ : parent,
                s.node, from_phys, to_phys, cat, opcode});
    }
    ++live_events_;
    s.res = row(r);
    if constexpr (kShared) ++r.pending;
    if (tick < cal_cur_ + ring_size_) [[likely]] {
      bucket_insert(tick, seq, s);
    } else {
      spill(Event{s, tick, seq});
    }
  }

  // Slow paths, kept out of line so schedule() and move_cursor() stay
  // small enough to inline into every call site.
  [[gnu::noinline]] void spill(const Event& ev) {
    if constexpr (!kShared) ++work_.spills;
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  }

  [[gnu::noinline]] void migrate_overflow() {
    while (!overflow_.empty() &&
           overflow_.front().tick < cal_cur_ + ring_size_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
      const Event& ev = overflow_.back();
      bucket_insert(ev.tick, ev.seq, ev);
      overflow_.pop_back();
    }
  }

  // Every cursor move pulls in the spill the window now covers, before
  // anything can be scheduled at those ticks — so an admission at a
  // paused tick lands behind older spilled events of the same tick.
  [[gnu::always_inline]] inline void move_cursor(std::int64_t tick) {
    cal_cur_ = tick;
    if (!overflow_.empty()) [[unlikely]] migrate_overflow();
  }

  // Widens the ring to `want` buckets (a power of two). Each occupied
  // bucket holds one tick of the current window, in seq order, and moves
  // whole into that tick's new bucket (keeping bucket_pos valid); the
  // spill the wider window now covers migrates after it. A bucket's tick
  // is the one window tick [cal_cur, cal_cur + old ring) its index maps
  // to.
  void grow_ring(std::int64_t want) {
    if (want <= ring_size_) return;
    std::vector<std::vector<Record>> old_buckets(
        static_cast<std::size_t>(want));
    std::vector<std::uint64_t> old_words(static_cast<std::size_t>(want >> 6),
                                         0);
    old_buckets.swap(buckets_);
    old_words.swap(cal_words_);
    const std::int64_t old_mask = bucket_mask_;
    ring_size_ = want;
    bucket_mask_ = want - 1;
    for (std::size_t w = 0; w < old_words.size(); ++w) {
      for (std::uint64_t bits = old_words[w]; bits != 0; bits &= bits - 1) {
        const std::size_t old_bi =
            (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        const std::int64_t tick =
            cal_cur_ +
            ((static_cast<std::int64_t>(old_bi) - cal_cur_) & old_mask);
        const auto bi = static_cast<std::size_t>(tick & bucket_mask_);
        buckets_[bi] = std::move(old_buckets[old_bi]);
        cal_words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
      }
    }
    migrate_overflow();
  }

  void clear_bucket(std::size_t bix) {
    buckets_[bix].clear();
    cal_words_[bix >> 6] &= ~(std::uint64_t{1} << (bix & 63));
  }

  // Empties every occupied bucket and the spill. Shared: every finished
  // residency still waiting on its events to drain is reclaimed.
  void drop_pending() {
    for (std::size_t w = 0; w < cal_words_.size(); ++w) {
      for (std::uint64_t bits = cal_words_[w]; bits != 0; bits &= bits - 1) {
        buckets_[(w << 6) | static_cast<std::size_t>(std::countr_zero(bits))]
            .clear();
      }
      cal_words_[w] = 0;
    }
    overflow_.clear();
    live_events_ = 0;
    if constexpr (kShared) {
      for (ResidentRt& r : residents_) {
        const bool undrained = r.pending != 0;
        r.pending = 0;
        if (r.done && undrained) reclaim(r);
      }
    }
  }

  // Tick of the next non-empty bucket strictly after cal_cur, found by
  // a word-parallel circular scan of the occupancy bitmap (the window
  // holds at most one tick per bucket, so a set bit maps to exactly one
  // pending tick). INT64_MAX when every bucket is empty.
  std::int64_t next_bucket_tick() const {
    const auto mask = static_cast<std::uint64_t>(bucket_mask_);
    const std::uint64_t start =
        (static_cast<std::uint64_t>(cal_cur_) + 1) & mask;
    const auto nwords = static_cast<std::size_t>(ring_size_ >> 6);
    const auto w0 = static_cast<std::size_t>(start >> 6);
    std::uint64_t bits = cal_words_[w0] & (~std::uint64_t{0} << (start & 63));
    if (bits != 0) {
      const std::uint64_t j =
          (static_cast<std::uint64_t>(w0) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      return cal_cur_ + 1 + static_cast<std::int64_t>((j - start) & mask);
    }
    for (std::size_t s = 1; s <= nwords; ++s) {
      const std::size_t w = (w0 + s) % nwords;
      bits = cal_words_[w];
      if (w == w0) {
        const std::uint64_t low = start & 63;
        bits &= low != 0 ? (std::uint64_t{1} << low) - 1 : std::uint64_t{0};
      }
      if (bits != 0) {
        const std::uint64_t j =
            (static_cast<std::uint64_t>(w) << 6) +
            static_cast<std::uint64_t>(std::countr_zero(bits));
        return cal_cur_ + 1 + static_cast<std::int64_t>((j - start) & mask);
      }
    }
    return std::numeric_limits<std::int64_t>::max();
  }

  // The drain loop's fast path in the uninstrumented kernels: a Serial
  // token that crosses its node untouched is forwarded here without
  // dispatch(). Returns whether the event was consumed. (The shared
  // kernel has already dropped a finished residency's events.)
  [[gnu::always_inline]] inline bool forward_untouched(ResidentRt& r,
                                                       const Slot& ev) {
    if (ev.kind() != EvKind::Serial) return false;
    const Token tok{ev.cmd, ev.aux};
    if (!passes_untouched(r, ev.node, tok)) return false;
    pass_through(r, ev.node, tok);
    return true;
  }

  void dispatch(ResidentRt& r, const Record& ev) {
    if constexpr (kFastForward) ff_touch(ev.node, ev.node);
    if constexpr (kInstr) {
      if (fr() != nullptr) cur_edge_ = fr()->edge_of_seq(ev.seq);
    }
    switch (ev.kind()) {
      case EvKind::Serial:
        on_serial(r, ev.node, Token{ev.cmd, ev.aux});
        break;
      case EvKind::Mesh:
        on_mesh(r, ev.node, ev.side(), ev.aux, ev.prod);
        break;
      case EvKind::ExecDone: on_exec_done(r, ev.node); break;
      case EvKind::ServiceDone: on_service_done(r, ev.node); break;
    }
  }

  // ---- transport ----
  //
  // Serial and mesh transit is closed-form in both instantiations: a
  // shared residency's chain segment and X-Y routes stay inside its own
  // rows (admit() keeps rows private), so no other residency's token
  // ever crosses them. The ring channels are fabric-global: shared, each
  // remembers (owner, busy_until); same-owner passage is free (a
  // method's own requests never queue behind each other, which is the
  // solo timing), while a cross-residency request starts when the
  // channel frees and the delay is charged to the waiting residency.

  std::int64_t occupy(Occupancy& o, std::int32_t owner, std::int64_t at,
                      std::int64_t dur, std::int64_t* wait) {
    std::int64_t start = at;
    if (o.owner != owner && o.busy_until > at) {
      start = o.busy_until;
      *wait += start - at;
    }
    o.owner = owner;
    const std::int64_t done = start + dur;
    if (done > o.busy_until) o.busy_until = done;
    return done;
  }

  // Serial-chain arrival tick from physical a to b (a residency's anchor
  // is phys_delta - 1): one hop per link, and one for the intra-node IDU
  // hop (a == b). Collapsed configs have zero serial transit.
  std::int64_t chain_arrival(std::int32_t a, std::int32_t b) const {
    const std::int64_t hops = a < b ? b - a : a - b;
    return now_ + hop_ * std::max<std::int64_t>(hops, 1);
  }

  // Mesh arrival tick for one plan edge: its baked delivery_ticks, one
  // mesh cycle (k ticks) per link of its X-Y route (collapsed configs
  // and self-edges keep their clamped cost).
  std::int64_t mesh_arrival(const PlanEdge& e) const {
    return now_ + e.delivery_ticks;
  }

  // Ring-service completion tick. Shared: all four channels are
  // fabric-global — the one transport resource row-private residencies
  // share. `blocking` distinguishes a waiting requester (MemRead, GPP
  // calls) from a posted MemoryWrite, which reserves the channel but
  // never stalls its node.
  std::int64_t ring_done(ResidentRt& r, net::RingService svc,
                         std::int64_t svc_ticks, bool blocking) {
    if constexpr (!kShared) {
      return now_ + svc_ticks;
    } else {
      std::int64_t wait = 0;
      const std::int64_t done =
          occupy(ring_[static_cast<std::size_t>(svc)], r.id, now_, svc_ticks,
                 &wait);
      if (blocking) r.ring_wait += wait;
      return done;
    }
  }

  // ---- sends ----

  void send_serial(ResidentRt& r, std::int32_t from, std::int32_t to,
                   Token tok, std::int64_t extra = 0,
                   std::int32_t parent = kParentCurrent) {
    if (to < base(r) || to >= base(r) + r.count) {
      return;  // token falls off the residency's chain span
    }
    ++r.serial_msgs;
    const std::int32_t a =
        from == kFromAnchor ? r.phys_delta - 1 : phys_of(r, from);
    const std::int64_t arrival = chain_arrival(a, phys_of(r, to));
    if (mx() != nullptr) {
      ++mx()->serial_messages;
      mx()->serial_hop_ticks += static_cast<std::uint64_t>(arrival - now_);
      ++mx()->serial_commands[static_cast<std::size_t>(tok.cmd)];
    }
    Slot s;
    s.set(EvKind::Serial);
    s.node = to;
    s.cmd = tok.cmd;
    s.aux = tok.reg;
    schedule(r, arrival + extra, s, obs::PathCategory::SerialTransit, parent);
  }

  void forward_token(ResidentRt& r, std::int32_t g, Token tok,
                     std::int32_t parent = kParentCurrent) {
    send_serial(r, g, fwd_[static_cast<std::size_t>(g)], tok, /*extra=*/0,
                parent);
  }

  // Whether a token crosses node lane g untouched: on_serial would
  // forward it one lane on without reading or changing any node state.
  // That is a REGISTER token at a node that neither buffers tokens nor
  // reads or writes that register, or a MEMORY token at a node that
  // neither buffers tokens nor orders storage.
  bool passes_untouched(const ResidentRt& r, std::int32_t g,
                        Token tok) const {
    const std::int32_t l = local(r, g);
    const std::uint8_t f = r.flags[l];
    switch (tok.cmd) {
      case net::Command::RegisterToken:
        return (f & kPlanBuffers) == 0 &&
               ((f & kPlanLocal) == 0 || r.local_reg[l] != tok.reg);
      case net::Command::MemoryToken:
        return (f & (kPlanBuffers | kPlanOrdered)) == 0;
      default:
        return false;
    }
  }

  // Forwards a token that crossed node g untouched (passes_untouched).
  // Its forward target is still the next lane: only a buffering node's
  // branch ever redirects it.
  void pass_through(ResidentRt& r, std::int32_t g, Token tok) {
    assert(fwd_[static_cast<std::size_t>(g)] == g + 1);
    send_serial(r, g, g + 1, tok);
  }

  void send_mesh(ResidentRt& r, std::int32_t g) {
    const std::int32_t l = local(r, g);
    const std::int32_t from_phys = phys_of(r, g);
    const PlanEdge* e = r.edges + r.edge_begin[l];
    const PlanEdge* const end = r.edges + r.edge_begin[l + 1];
    for (; e != end; ++e) {
      ++r.mesh_msgs;
      if (mx() != nullptr) record_mesh_metrics(r, *e);
      const std::int32_t consumer = base(r) + e->consumer;
      Slot s;
      s.set(EvKind::Mesh, e->side);
      s.node = consumer;
      s.prod = g;
      s.aux = epoch_[static_cast<std::size_t>(consumer)];
      schedule(r, mesh_arrival(*e), s, obs::PathCategory::MeshTransit,
               kParentCurrent, from_phys, e->to_phys);
    }
  }

  // ---- flight recorder (critical-path attribution) ----
  //
  // A token that sat held at a node between delivery and release gets a
  // synthetic hold edge spliced in: [arrival end, now]. The release's
  // transit edge then parents on the hold edge, so attribute() walks
  // release -> hold -> arrival with no tick gap — waiting time becomes
  // its own category instead of disappearing into the next hop.
  std::int32_t hold_edge(std::int32_t node, std::int32_t arrival_edge,
                         obs::PathCategory cat) {
    if (arrival_edge < 0) return cur_edge_;  // defensive: unknown arrival
    const std::int64_t arrived =
        fr()->edges()[static_cast<std::size_t>(arrival_edge)].to_tick;
    return fr()->record({arrived, now_, arrival_edge, node, -1, -1, cat, 0});
  }

  // The parent for a held token's release: its hold edge with the
  // recorder attached, the dispatched event otherwise.
  std::int32_t released(std::int32_t node, std::int32_t arrival_edge,
                        obs::PathCategory cat) {
    return fr() != nullptr ? hold_edge(node, arrival_edge, cat)
                           : kParentCurrent;
  }

  // ---- telemetry (hooks are null-checked; compiled out when !kInstr) ----

  void record_mesh_metrics(const ResidentRt& r, const PlanEdge& e) {
    ++mx()->mesh_messages;
    mx()->mesh_transit_cycles += static_cast<std::uint64_t>(e.mesh_cycles);
    const PlanRouteLink* link = r.route_links + e.route_begin;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      mx()->mesh_link(link->src_phys, static_cast<obs::LinkDir>(link->dir));
    }
  }

  // Buffers a token at a control node, keeping the high-water mark and
  // (recorder attached) the parallel arrival-edge list in sync.
  void buffer_token(const ResidentRt& r, std::int32_t g, NodeRt& n,
                    Token tok) {
    n.buffered.push_back(tok);
    if (fr() != nullptr) n.buffered_edges.push_back(cur_edge_);
    if (mx() != nullptr) {
      mx()->buffer_high_water(phys_of(r, g), n.buffered.size());
    }
  }

  // Records a ring request in the registry and tracer, whichever are
  // attached.
  void record_service(const ResidentRt& r, std::int32_t g,
                      net::RingService svc, std::int64_t ticks) {
    if (mx() != nullptr) {
      ++mx()->ring_requests[static_cast<std::size_t>(svc)];
      mx()->ring_latency_ticks[static_cast<std::size_t>(svc)].record(ticks);
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::ServiceStart, g,
                    phys_of(r, g), static_cast<std::uint8_t>(svc), ticks});
    }
  }

  // ---- serial handlers ----

  void on_serial(ResidentRt& r, std::int32_t g, Token tok) {
    const auto u = static_cast<std::size_t>(g);
    const std::int32_t l = local(r, g);
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::TokenDeliver, g, phys_of(r, g),
                    static_cast<std::uint8_t>(tok.cmd), 0});
    }
    if (passes_untouched(r, g, tok)) {
      pass_through(r, g, tok);
      return;
    }
    NodeRt& n = nodes_[u];
    const std::uint8_t st = state_[u];
    const bool buffers = r.flag(l, kPlanBuffers);
    // Control-transfer nodes hold the bundle while unfired AND while a
    // fired backward transfer awaits its TAIL — those tokens are the
    // bundle that will replay around the loop (§6.3).
    const bool hold =
        buffers && (!(st & kFired) || (st & kWaitTailFlush) != 0);

    switch (tok.cmd) {
      case net::Command::HeadToken:
        state_[u] |= kHeadReceived;
        if (mx() != nullptr) head_tick_[u] = now_;
        if (hold) {
          buffer_token(r, g, n, tok);
          try_fire(r, g);
        } else {
          try_fire(r, g);
          forward_token(r, g, tok);  // the HEAD runs ahead (§6.3)
        }
        return;

      case net::Command::MemoryToken:
        if (hold) {
          buffer_token(r, g, n, tok);
          return;
        }
        if (r.flag(l, kPlanOrdered) && !(state_[u] & kFired)) {
          n.memory_held = true;
          n.held_memory = tok;
          if (fr() != nullptr) n.held_memory_edge = cur_edge_;
          try_fire(r, g);
          return;
        }
        forward_token(r, g, tok);
        return;

      case net::Command::RegisterToken: {
        if (hold) {
          buffer_token(r, g, n, tok);
          return;
        }
        const bytecode::Group grp = r.group_of(l);
        const std::int32_t lreg = r.local_reg[l];
        if ((grp == bytecode::Group::LocalRead ||
             grp == bytecode::Group::LocalInc) &&
            lreg == tok.reg && !(state_[u] & kFired) && !n.reg_held) {
          n.reg_held = true;
          n.held_reg = tok;
          if (fr() != nullptr) n.held_reg_edge = cur_edge_;
          try_fire(r, g);
          return;
        }
        if (grp == bytecode::Group::LocalWrite && lreg == tok.reg) {
          if (!(state_[u] & kFired)) {
            n.write_absorbed = true;  // the write kills the old value
          } else if (n.kill_next_register) {
            n.kill_next_register = false;  // stale token after firing
          } else {
            forward_token(r, g, tok);
          }
          return;
        }
        forward_token(r, g, tok);
        return;
      }

      case net::Command::TailToken:
        if (buffers) {
          if (!(state_[u] & kFired)) {
            buffer_token(r, g, n, tok);
            n.tail_present = true;
            try_fire(r, g);  // returns / backward gotos need the TAIL
            return;
          }
          if (state_[u] & kWaitTailFlush) {
            buffer_token(r, g, n, tok);
            flush_up(r, g);
            return;
          }
          forward_token(r, g, tok);
          return;
        }
        if (state_[u] & kFired) {
          forward_token(r, g, tok);
        } else {
          n.tail_held = true;  // held until this node fires (§6.3)
          n.held_tail = tok;
          if (fr() != nullptr) n.held_tail_edge = cur_edge_;
          if (mx() != nullptr) tail_hold_[u] = now_;
        }
        return;

      default:
        forward_token(r, g, tok);
        return;
    }
  }

  void on_mesh(ResidentRt& r, std::int32_t g, std::uint8_t side,
               std::int32_t epoch, std::int32_t producer) {
    const auto u = static_cast<std::size_t>(g);
    if (epoch_[u] != epoch) return;  // stale (previous loop iteration)
    if (tr() != nullptr) {
      // `dur` carries the producing node so the Chrome exporter can draw
      // producer->consumer flow arrows (docs/OBSERVABILITY.md).
      tr()->record({now_, obs::TraceEventKind::OperandArrive, g,
                    phys_of(r, g), side, producer});
    }
    ++pops_[u];
    try_fire(r, g);
  }

  // ---- firing ----

  bool fire_ready(const ResidentRt& r, std::int32_t g) const {
    const auto u = static_cast<std::size_t>(g);
    // Exactly "HEAD received and nothing else": fired / executing /
    // in-service all block, so one byte compare covers five flags.
    if (state_[u] != kHeadReceived) return false;
    const NodeRt& n = nodes_[u];
    const std::int32_t l = local(r, g);
    const std::int32_t need = r.pop_need[l];
    switch (r.group_of(l)) {
      case bytecode::Group::LocalRead:
      case bytecode::Group::LocalInc:
        return n.reg_held;
      case bytecode::Group::MemRead:
      case bytecode::Group::MemWrite:
        return pops_[u] >= need && n.memory_held;
      case bytecode::Group::Return:
        return pops_[u] >= need && n.tail_present;
      case bytecode::Group::ControlFlow:
        if (r.flag(l, kPlanBackwardGoto)) {
          return n.tail_present;  // backward GoTo fires on TAIL (§6.3)
        }
        return pops_[u] >= need;
      default:
        return pops_[u] >= need;
    }
  }

  void try_fire(ResidentRt& r, std::int32_t g) {
    if (!fire_ready(r, g)) return;
    const auto u = static_cast<std::size_t>(g);
    const std::int32_t l = local(r, g);
    // One Instruction Execution Unit per physical node: with several
    // IDUs packed into a node (§4.2), firings within a node serialize.
    const auto pn = static_cast<std::size_t>(phys_of(r, g));
    if (idus_ > 1 && exec_busy_[pn]) {
      // Remember what made the node ready: the gap until it actually
      // fires is FireStall time on the critical path.
      if (fr() != nullptr && node_ready_edge_[u] < 0) {
        node_ready_edge_[u] = cur_edge_;
      }
      pending_fire_[pn].push_back(g);
      return;
    }
    exec_busy_[pn] = 1;
    state_[u] |= kExecuting;
    exec_delta(r, +1);
    const std::int64_t cost = r.exec_cost[l];
    if (mx() != nullptr) {
      mx()->node_firing(static_cast<std::int32_t>(pn), r.op[l]);
      mx()->exec_ticks_by_group[r.group[l]].record(cost);
      if (head_tick_[u] >= 0) {
        mx()->fire_stall_ticks.record(now_ - head_tick_[u]);
      }
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireStart, g,
                    static_cast<std::int32_t>(pn), r.group[l], cost});
    }
    std::int32_t parent = kParentCurrent;
    if (fr() != nullptr && node_ready_edge_[u] >= 0) {
      parent = hold_edge(g, node_ready_edge_[u], obs::PathCategory::FireStall);
      node_ready_edge_[u] = -1;
    }
    Slot s;
    s.set(EvKind::ExecDone);
    s.node = g;
    schedule(r, now_ + cost, s, obs::PathCategory::Execution, parent, -1, -1,
             r.op[l]);
  }

  void release_execution_unit(ResidentRt& r, std::int32_t g) {
    const auto pn = static_cast<std::size_t>(phys_of(r, g));
    exec_busy_[pn] = 0;
    if (idus_ <= 1) return;
    auto& pending = pending_fire_[pn];
    while (!pending.empty()) {
      const std::int32_t next = pending.front();
      pending.erase(pending.begin());
      if constexpr (kShared) {
        const std::uint16_t nres = res_of_[static_cast<std::size_t>(next)];
        if (residents_[nres].done) continue;  // stale: owner finished
        try_fire(residents_[nres], next);
      } else {
        if constexpr (kFastForward) ff_touch(next, next);
        try_fire(r, next);
      }
      if (exec_busy_[pn]) break;  // someone grabbed the unit
    }
  }

  void mark_fired(ResidentRt& r, std::int32_t g) {
    state_[static_cast<std::size_t>(g)] |= kFired;
    ++r.fired;
    distinct_[static_cast<std::size_t>(g)] = 1;
  }

  // Releases everything a non-control node owes downstream after firing.
  void post_fire_releases(ResidentRt& r, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes_[u];
    const std::int32_t l = local(r, g);
    const bytecode::Group grp = r.group_of(l);
    if (grp == bytecode::Group::LocalRead ||
        grp == bytecode::Group::LocalInc) {
      if (n.reg_held) {
        n.reg_held = false;
        forward_token(r, g, n.held_reg,  // register value flows on
                      released(g, n.held_reg_edge,
                               obs::PathCategory::OperandWait));
      }
    }
    if (grp == bytecode::Group::LocalWrite) {
      forward_token(r, g,
                    Token{net::Command::RegisterToken, r.local_reg[l]});
      if (!n.write_absorbed) n.kill_next_register = true;
    }
    if (n.memory_held) {
      n.memory_held = false;
      forward_token(r, g, n.held_memory,  // memory order established
                    released(g, n.held_memory_edge,
                             obs::PathCategory::OperandWait));
    }
    if (n.tail_held) {
      n.tail_held = false;
      if (mx() != nullptr && tail_hold_[u] >= 0) {
        mx()->tail_hold_ticks.record(now_ - tail_hold_[u]);
        tail_hold_[u] = -1;
      }
      forward_token(r, g, n.held_tail,
                    released(g, n.held_tail_edge, obs::PathCategory::TailHold));
    }
  }

  // Books a ring service for node g and schedules its ServiceDone.
  void start_service(ResidentRt& r, std::int32_t g, net::RingService svc,
                     std::int64_t svc_ticks) {
    state_[static_cast<std::size_t>(g)] |= kInService;
    record_service(r, g, svc, svc_ticks);
    Slot s;
    s.set(EvKind::ServiceDone);
    s.node = g;
    schedule(r, ring_done(r, svc, svc_ticks, /*blocking=*/true), s,
             obs::PathCategory::RingService);
  }

  void on_exec_done(ResidentRt& r, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes_[u];
    state_[u] &= static_cast<std::uint8_t>(~kExecuting);
    exec_delta(r, -1);
    release_execution_unit(r, g);
    const std::int32_t l = local(r, g);
    const bytecode::Group grp = r.group_of(l);
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireComplete, g,
                    phys_of(r, g), static_cast<std::uint8_t>(grp), 0});
    }

    if (kInstr && g == opt_.inject_exception_at &&
        ++exception_fires_ >= opt_.inject_exception_fire) {
      // §6.3 Exceptions: the node halts, an EXCEPTION_TOKEN reaches the
      // GPP over the ring, and the GPP terminates the method.
      r.exception = true;
      const std::int64_t svc_ticks = k_ * cfg_.ring.gpp_service;
      record_service(r, g, net::RingService::GppService, svc_ticks);
      const std::int64_t end = now_ + svc_ticks;
      // The exception retirement is the run's terminal edge: the GPP
      // round trip [now, end] caps the realized critical path.
      if (fr() != nullptr) {
        fr()->set_terminal(fr()->record({now_, end, cur_edge_, g, -1, -1,
                                         obs::PathCategory::RingService, 0}));
      }
      complete_resident(r, end);
      return;
    }

    if (grp == bytecode::Group::ControlFlow || r.flag(l, kPlanSwitch)) {
      resolve_control(r, g);
      return;
    }
    if (grp == bytecode::Group::Return) {
      mark_fired(r, g);
      // The Return's own execution completion is the terminal edge.
      if (fr() != nullptr) fr()->set_terminal(cur_edge_);
      complete_resident(r, now_);
      return;
    }
    if (grp == bytecode::Group::Call || grp == bytecode::Group::Special) {
      start_service(r, g, net::RingService::GppService,
                    k_ * cfg_.ring.gpp_service);
      return;
    }
    if (grp == bytecode::Group::MemRead) {
      if (n.memory_held) {
        n.memory_held = false;
        forward_token(r, g, n.held_memory,
                      released(g, n.held_memory_edge,
                               obs::PathCategory::OperandWait));
      }
      start_service(r, g, net::RingService::MemoryRead,
                    k_ * cfg_.ring.memory_read);
      return;
    }
    if (grp == bytecode::Group::MemWrite) {
      // Posted write: the channel is reserved but the node never waits;
      // it is fired once the request is dispatched.
      const std::int64_t svc_ticks = k_ * cfg_.ring.memory_write;
      ring_done(r, net::RingService::MemoryWrite, svc_ticks,
                /*blocking=*/false);
      record_service(r, g, net::RingService::MemoryWrite, svc_ticks);
      mark_fired(r, g);
      post_fire_releases(r, g);
      return;
    }
    // Arithmetic / moves / locals / constants: produce and release.
    mark_fired(r, g);
    send_mesh(r, g);
    post_fire_releases(r, g);
  }

  void on_service_done(ResidentRt& r, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    state_[u] &= static_cast<std::uint8_t>(~kInService);
    if (tr() != nullptr) {
      const net::RingService svc =
          r.group_of(local(r, g)) == bytecode::Group::MemRead
              ? net::RingService::MemoryRead
              : net::RingService::GppService;
      tr()->record({now_, obs::TraceEventKind::ServiceComplete, g,
                    phys_of(r, g), static_cast<std::uint8_t>(svc), 0});
    }
    mark_fired(r, g);
    send_mesh(r, g);  // read data / call result to consumers
    post_fire_releases(r, g);
  }

  // Control-transfer decision and token routing (§6.3). Predictor sites
  // are keyed by the method-local node id, so a shared plan's
  // residencies replay the same decision streams as a solo run.
  void resolve_control(ResidentRt& r, std::int32_t g) {
    NodeRt& n = nodes_[static_cast<std::size_t>(g)];
    const std::int32_t l = local(r, g);
    std::int32_t target;  // global node index
    if (r.flag(l, kPlanGoto)) {
      target = base(r) + r.target[l];
    } else if (r.flag(l, kPlanSwitch)) {
      const bytecode::SwitchTable& table =
          r.method->switches[static_cast<std::size_t>(r.operand[l])];
      const auto arms = static_cast<std::int32_t>(table.targets.size()) + 1;
      const std::int32_t pick = predictor(r).decide_switch(l, arms);
      target = base(r) +
               (pick < static_cast<std::int32_t>(table.targets.size())
                    ? table.targets[static_cast<std::size_t>(pick)]
                    : table.default_target);
    } else {
      const auto kind = static_cast<BranchKind>(r.branch_kinds[l]);
      const bool taken = predictor(r).decide(l, kind);
      target = taken ? base(r) + r.target[l] : g + 1;
    }

    mark_fired(r, g);
    if (target > g) {
      // Forward transfer: flush the buffer toward the target; later
      // tokens follow the same route until the iteration resets.
      fwd_[static_cast<std::size_t>(g)] = target;
      std::int64_t idx = 0;
      for (std::size_t bi = 0; bi < n.buffered.size(); ++bi) {
        const Token tok = n.buffered[bi];
        send_serial(r, g, target, tok, hop_ == 0 ? 0 : idx++,
                    bundle_parent(g, n.buffered_edges, bi, tok));
      }
      n.buffered.clear();
      n.buffered_edges.clear();
      return;
    }
    // Backward transfer: hold everything until the TAIL arrives (§6.3).
    state_[static_cast<std::size_t>(g)] |= kWaitTailFlush;
    n.decided_target = target;
    if (n.tail_present) flush_up(r, g);
  }

  // A buffered token waited from arrival to the branch decision: TAIL
  // hold for the TAIL, operand wait for the rest.
  std::int32_t bundle_parent(std::int32_t g,
                             const std::vector<std::int32_t>& edges,
                             std::size_t bi, Token tok) {
    if (fr() == nullptr) return kParentCurrent;
    return hold_edge(g, bi < edges.size() ? edges[bi] : -1,
                     tok.cmd == net::Command::TailToken
                         ? obs::PathCategory::TailHold
                         : obs::PathCategory::OperandWait);
  }

  // Iteration reset (loop replay): clears the hot lanes and the cold
  // routing state, and bumps the epoch so in-flight mesh operands from
  // the previous trip are discarded on arrival.
  void reset_node(std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    state_[u] = 0;
    pops_[u] = 0;
    ++epoch_[u];
    fwd_[u] = g + 1;
    if (mx() != nullptr) {
      head_tick_[u] = -1;
      tail_hold_[u] = -1;
    }
    nodes_[u].reset_cold();
  }

  // Back jump with TAIL in hand: replay the bundle to the loop head via
  // the reverse network, resetting every node it passes. The bundle is
  // staged in a scratch vector, so neither side of the swap ever
  // re-allocates once warmed up.
  void flush_up(ResidentRt& r, std::int32_t g) {
    NodeRt& n = nodes_[static_cast<std::size_t>(g)];
    const std::int32_t target = n.decided_target;
    flush_scratch_.clear();
    flush_scratch_.swap(n.buffered);
    if (fr() != nullptr) {
      flush_edge_scratch_.clear();
      flush_edge_scratch_.swap(n.buffered_edges);
    }
    for (std::int32_t i = target; i <= g; ++i) reset_node(i);
    if constexpr (kFastForward) ff_touch(target, g);
    std::int64_t idx = 0;
    for (std::size_t bi = 0; bi < flush_scratch_.size(); ++bi) {
      const Token tok = flush_scratch_[bi];
      send_serial(r, g, target, tok, hop_ == 0 ? 0 : idx++,
                  bundle_parent(g, flush_edge_scratch_, bi, tok));
    }
    // The replay closes one period of latch g; the tick's drain step
    // looks at it.
    if constexpr (kFastForward) {
      ff_.flushed = ff_.flushed == kFfNone || ff_.flushed == g ? g : kFfSeveral;
    }
  }

  // ---- loop fast-forward (solo, uninstrumented) ----
  //
  // docs/PERF.md "Loop fast-forward". Each bundle replay closes one
  // period of its latch. At the drain step of a tick in which a latch
  // flushed, ff_tick() records the period's O(1) signature (the clock,
  // seq, fired, serial and mesh deltas) and, from the second flush of a
  // loop visit on, captures the canonical state. One period later, or
  // two when the signatures alternate, it captures the state again if
  // the signatures repeat (P = 1 or 2) and compares value for value; on
  // a match it jumps over every further period whose branch decisions
  // the predictor's counters say repeat the template's.
  //
  // Exactness: the state compared is everything the simulation's future
  // reads, relative to now (pending ticks, the open overlap span) and to
  // the consumers' epochs (in-flight operands). Everything the future
  // does not read but the results report — the clock, seq, epochs, the
  // RunMetrics counters and the predictor's counts — moves by n times
  // its per-period delta. Moving every pending event by the same number
  // of ticks keeps their (tick, seq) order, so the jump lands in the
  // state the skipped events would have produced. distinct_ needs
  // nothing: the template already fired every node the skipped periods
  // fire.
  //
  // Node lanes change only where an event is dispatched, where a replay
  // resets its loop, and where a freed execution unit fires a queued
  // node, so the kernel keeps the range of lanes touched (ff_touch). A
  // snapshot covers the lanes the latch's latest periods touched; a lane
  // outside it that nothing touched since is equal by construction, and
  // a touch outside it voids the compare.

  // ff_.flushed: no latch flushed this tick, or more than one did.
  static constexpr std::int32_t kFfNone = -1;
  static constexpr std::int32_t kFfSeveral = -2;
  // Longest template, in latch periods.
  static constexpr std::int32_t kFfMaxPeriod = 2;
  // Snapshots a latch may release without a jump before the kernel stops
  // trying until its signature breaks (a new loop visit).
  static constexpr std::int32_t kFfRetries = 3;
  // Snapshots armed at once; past it, the latch that flushed longest ago
  // loses its snapshot.
  static constexpr std::size_t kFfMaxSnapshots = 8;

  // The counters a period's signature is made of.
  struct FfCounters {
    std::int64_t now = 0;
    std::int64_t seq = 0;
    std::int64_t fired = 0;
    std::int64_t serial = 0;
    std::int64_t mesh = 0;
    bool operator==(const FfCounters&) const = default;
  };

  // A range of node lanes (empty: lo > hi).
  struct FfRange {
    std::int32_t lo = std::numeric_limits<std::int32_t>::max();
    std::int32_t hi = -1;
    void add(std::int32_t l, std::int32_t h) {
      lo = std::min(lo, l);
      hi = std::max(hi, h);
    }
    void add(const FfRange& o) { add(o.lo, o.hi); }
    bool within(const FfRange& o) const {
      return lo > hi || (o.lo <= lo && hi <= o.hi);
    }
  };

  // A node's token state: held tokens (-1 when none) and the flags.
  struct FfNode {
    std::int64_t reg = -1;
    std::int64_t memory = -1;
    std::int64_t tail = -1;
    std::int32_t decided_target = -1;
    // write_absorbed | kill_next_register << 1 | tail_present << 2 |
    // buffered.size() << 3; the buffered tokens follow in
    // FfSnapshot::buffered.
    std::uint32_t flags = 0;
    bool operator==(const FfNode&) const = default;
  };

  // A pending event relative to now; a Mesh event's aux is the number
  // of epochs its consumer is ahead of it.
  struct FfEvent {
    std::int64_t rel = 0;
    std::int32_t node = 0;
    std::int32_t aux = 0;
    std::int32_t prod = 0;
    std::uint8_t kind_side = 0;
    net::Command cmd = net::Command::HeadToken;
    bool operator==(const FfEvent&) const = default;
  };

  // A plan node that asks the predictor (resolve_control's branches).
  struct FfSite {
    std::int32_t site = 0;
    BranchKind kind = BranchKind::Forward;
    std::int32_t arms = 0;  // > 0: a switch with that many arms
  };

  // The canonical state at a drain step over the lanes in `lanes`, plus
  // what the shift reads.
  struct FfSnapshot {
    FfCounters at;
    std::int64_t acc1 = 0;
    std::int64_t acc2 = 0;
    FfRange lanes;
    // Compared.
    std::int32_t active_exec = 0;
    std::int64_t open_span = 0;  // now - last_change while executing
    std::vector<FfEvent> events;
    std::vector<std::uint8_t> state;
    std::vector<std::int32_t> pops;
    std::vector<std::int32_t> fwd;
    std::vector<FfNode> nodes;
    std::vector<std::int64_t> buffered;
    std::vector<char> exec_busy;
    std::vector<std::int32_t> pending_fire;  // per unit: size, lanes
    std::vector<FfSite> sites;               // the range's decision sites
    // Shifted, not compared.
    std::vector<std::int32_t> epoch;
    std::vector<std::int32_t> counts;  // parallel to sites
  };

  struct FfLatch {
    std::int32_t node = -1;
    bool seen = false;
    FfCounters at;                     // counters at its latest flush
    std::array<FfCounters, 4> sig{};   // period signatures, newest first
    std::int32_t sigs = 0;             // valid entries of sig
    FfRange touched;                   // lanes touched since its flush
    std::array<FfRange, 2> recent{};   // touched by its last two periods
    std::int32_t snap = -1;            // armed snapshot, or -1
    std::int32_t since = 0;            // its periods since that snapshot
    FfRange since_snap;                // lanes touched since that snapshot
    std::int32_t misses = 0;           // snapshots released without a jump
  };

  // Lives in the engine workspace: every buffer keeps its capacity.
  struct FastForward {
    bool enabled = false;  // BP1/BP2: a Trace has no counters
    std::int32_t flushed = kFfNone;
    FfRange touched;  // lanes touched since the last ff_tick()
    std::vector<FfLatch> latches;
    std::vector<FfSnapshot> snaps;
    std::vector<std::int32_t> free_snaps;
    FfSnapshot probe;
    std::vector<Event> spill;                 // capture: the spill, sorted
    std::vector<std::int32_t> epoch_shift;    // jump: per snapshot lane
    std::vector<std::size_t> moved;           // jump: occupied buckets
    std::vector<std::vector<Record>> staged;  // jump: their events
  };
  struct FfOff {};

  void ff_begin() {
    ff_.enabled =
        predictor_->scenario() != BranchPredictor::Scenario::Trace;
    ff_.flushed = kFfNone;
    ff_.touched = FfRange{};
    ff_.latches.clear();
    ff_.free_snaps.resize(ff_.snaps.size());
    std::iota(ff_.free_snaps.begin(), ff_.free_snaps.end(), 0);
  }

  [[gnu::always_inline]] inline void ff_touch(std::int32_t lo,
                                              std::int32_t hi) {
    ff_.touched.add(lo, hi);
  }

  FfCounters ff_counters(const ResidentRt& r) const {
    return {now_, seq_, r.fired, r.serial_msgs, r.mesh_msgs};
  }

  static FfCounters ff_minus(const FfCounters& a, const FfCounters& b) {
    return {a.now - b.now, a.seq - b.seq, a.fired - b.fired,
            a.serial - b.serial, a.mesh - b.mesh};
  }

  // Whether latch t's last p periods repeat the p before them, as far as
  // the visit's signatures go back (too few: no evidence against).
  static bool ff_repeats(const FfLatch& t, std::int32_t p) {
    for (std::int32_t i = 0; i < p && i + p < t.sigs; ++i) {
      if (!(t.sig[static_cast<std::size_t>(i)] ==
            t.sig[static_cast<std::size_t>(i + p)])) {
        return false;
      }
    }
    return true;
  }

  FfLatch& ff_latch(std::int32_t g) {
    for (FfLatch& t : ff_.latches) {
      if (t.node == g) return t;
    }
    ff_.latches.emplace_back();
    ff_.latches.back().node = g;
    return ff_.latches.back();
  }

  void ff_release(FfLatch& t) {
    ff_.free_snaps.push_back(t.snap);
    t.snap = -1;
  }

  // A free snapshot for latch `owner`: a new one while fewer than
  // kFfMaxSnapshots exist, else the one whose latch flushed longest ago.
  std::int32_t ff_take(const FfLatch& owner) {
    if (ff_.free_snaps.empty() && ff_.snaps.size() < kFfMaxSnapshots) {
      ff_.snaps.emplace_back();
      return static_cast<std::int32_t>(ff_.snaps.size() - 1);
    }
    if (ff_.free_snaps.empty()) {
      FfLatch* oldest = nullptr;
      for (FfLatch& t : ff_.latches) {
        if (t.snap >= 0 && &t != &owner &&
            (oldest == nullptr || t.at.now < oldest->at.now)) {
          oldest = &t;
        }
      }
      ff_release(*oldest);
    }
    const std::int32_t i = ff_.free_snaps.back();
    ff_.free_snaps.pop_back();
    return i;
  }

  // The drain step of a tick in which latch ff_.flushed replayed its
  // bundle.
  [[gnu::noinline]] void ff_tick() {
    const std::int32_t g = ff_.flushed;
    ff_.flushed = kFfNone;
    for (FfLatch& t : ff_.latches) t.touched.add(ff_.touched);
    const FfRange touched = ff_.touched;
    ff_.touched = FfRange{};
    if (g < 0 || !ff_.enabled) return;
    ResidentRt& r = residents_.front();
    FfLatch& t = ff_latch(g);
    const FfCounters c = ff_counters(r);
    if (t.seen) {
      for (std::size_t i = t.sig.size() - 1; i > 0; --i) t.sig[i] = t.sig[i - 1];
      t.sig[0] = ff_minus(c, t.at);
      t.sigs = std::min(t.sigs + 1, static_cast<std::int32_t>(t.sig.size()));
    } else {
      t.seen = true;
      t.touched = touched;
    }
    t.at = c;
    t.recent[1] = t.recent[0];
    t.recent[0] = t.touched;
    t.touched = FfRange{};
    if (t.sigs >= 3 && !ff_repeats(t, 1) && !ff_repeats(t, 2)) {
      // A period unlike the ones before it: most likely the loop's next
      // visit. Its history starts here.
      t.sigs = 0;
      t.misses = 0;
      if (t.snap >= 0) ff_release(t);
    }

    bool probed = false;
    if (t.snap >= 0) {
      const std::int32_t p = ++t.since;
      t.since_snap.add(t.recent[0]);
      FfSnapshot& s = ff_.snaps[static_cast<std::size_t>(t.snap)];
      bool same = false;
      if (ff_repeats(t, p) && t.since_snap.within(s.lanes)) {
        ff_capture(r, s.lanes, ff_.probe);
        probed = true;
        same = ff_same(s, ff_.probe);
        if (same && ff_skip(r, s, ff_.probe, p)) {
          ff_release(t);
          t.at = ff_counters(r);
          return;
        }
      }
      // Keep it for a P = 2 compare when the state repeated under a
      // different decision, or when the periods alternate.
      if (p < kFfMaxPeriod &&
          (same || (t.sigs >= 2 && !(t.sig[0] == t.sig[1])))) {
        return;
      }
      ff_release(t);
      ++t.misses;
    }
    // Arm, from the second flush of a visit on: the first period carries
    // the loop entry, and a signature to gate on. The template should
    // touch what the latest periods touched.
    if (t.sigs == 0 || t.misses >= kFfRetries) return;
    FfRange lanes = t.recent[0];
    lanes.add(t.recent[1]);
    t.snap = ff_take(t);
    t.since = 0;
    t.since_snap = FfRange{};
    FfSnapshot& s = ff_.snaps[static_cast<std::size_t>(t.snap)];
    if (probed && lanes.within(ff_.probe.lanes)) {
      std::swap(s, ff_.probe);
    } else {
      ff_capture(r, lanes, s);
    }
  }

  static std::int64_t ff_token(Token t) {
    return std::int64_t{static_cast<std::uint8_t>(t.cmd)} << 32 |
           static_cast<std::uint32_t>(t.reg);
  }

  // Visits every occupied ring bucket in tick order, with its tick. The
  // current tick's bucket has drained.
  template <class F>
  void ff_for_each_bucket(F&& f) {
    const auto mask = static_cast<std::uint64_t>(bucket_mask_);
    const auto nwords = static_cast<std::size_t>(ring_size_ >> 6);
    const std::uint64_t start =
        (static_cast<std::uint64_t>(cal_cur_) + 1) & mask;
    const auto w0 = static_cast<std::size_t>(start >> 6);
    const std::uint64_t low = start & 63;
    for (std::size_t i = 0; i <= nwords; ++i) {
      const std::size_t w = (w0 + i) % nwords;
      std::uint64_t bits = cal_words_[w];
      if (i == 0) bits &= ~std::uint64_t{0} << low;
      if (i == nwords) {
        bits &= low != 0 ? (std::uint64_t{1} << low) - 1 : std::uint64_t{0};
      }
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t bi =
            (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
        f(cal_cur_ + 1 +
              static_cast<std::int64_t>((static_cast<std::uint64_t>(bi) -
                                         start) &
                                        mask),
          bi);
      }
    }
  }

  FfEvent ff_event(std::int64_t tick, const Slot& e) const {
    FfEvent f;
    f.rel = tick - now_;
    f.node = e.node;
    f.aux = e.kind() == EvKind::Mesh
                ? epoch_[static_cast<std::size_t>(e.node)] - e.aux
                : e.aux;
    f.prod = e.prod;
    f.kind_side = e.kind_side;
    f.cmd = e.cmd;
    return f;
  }

  // Captures the canonical state with node lanes `lanes`. Only a node
  // the kernel dispatches an event to can decide a branch, so the
  // range's decision sites (resolve_control's conditional jumps and
  // switches) are every site the template can decide.
  void ff_capture(const ResidentRt& r, FfRange lanes, FfSnapshot& s) {
    s.at = ff_counters(r);
    s.acc1 = r.acc1;
    s.acc2 = r.acc2;
    s.lanes = lanes;
    s.active_exec = r.active_exec;
    s.open_span = r.active_exec > 0 ? now_ - r.last_change : 0;

    s.events.clear();
    ff_for_each_bucket([&](std::int64_t tick, std::size_t bi) {
      for (const Slot& e : buckets_[bi]) s.events.push_back(ff_event(tick, e));
    });
    ff_.spill.assign(overflow_.begin(), overflow_.end());
    std::sort(ff_.spill.begin(), ff_.spill.end(),
              [](const Event& a, const Event& b) {
                return std::tie(a.tick, a.seq) < std::tie(b.tick, b.seq);
              });
    for (const Event& e : ff_.spill) s.events.push_back(ff_event(e.tick, e));

    const auto lo = static_cast<std::size_t>(lanes.lo);
    const auto hi = static_cast<std::size_t>(lanes.hi) + 1;
    s.state.assign(state_.begin() + lo, state_.begin() + hi);
    s.pops.assign(pops_.begin() + lo, pops_.begin() + hi);
    s.fwd.assign(fwd_.begin() + lo, fwd_.begin() + hi);
    s.epoch.assign(epoch_.begin() + lo, epoch_.begin() + hi);
    s.nodes.resize(hi - lo);
    s.buffered.clear();
    s.sites.clear();
    s.counts.clear();
    for (std::size_t u = lo; u < hi; ++u) {
      const NodeRt& n = nodes_[u];
      FfNode& f = s.nodes[u - lo];
      f.reg = n.reg_held ? ff_token(n.held_reg) : -1;
      f.memory = n.memory_held ? ff_token(n.held_memory) : -1;
      f.tail = n.tail_held ? ff_token(n.held_tail) : -1;
      f.decided_target = n.decided_target;
      f.flags = static_cast<std::uint32_t>(n.write_absorbed) |
                static_cast<std::uint32_t>(n.kill_next_register) << 1 |
                static_cast<std::uint32_t>(n.tail_present) << 2 |
                static_cast<std::uint32_t>(n.buffered.size()) << 3;
      for (const Token tok : n.buffered) s.buffered.push_back(ff_token(tok));

      const auto l = static_cast<std::int32_t>(u);
      if (!(r.group_of(l) == bytecode::Group::ControlFlow ||
            r.flag(l, kPlanSwitch)) ||
          r.flag(l, kPlanGoto)) {
        continue;
      }
      FfSite site;
      site.site = l;
      if (r.flag(l, kPlanSwitch)) {
        site.arms = static_cast<std::int32_t>(
                        r.method->switches[static_cast<std::size_t>(
                                               r.operand[l])]
                            .targets.size()) +
                    1;
        s.counts.push_back(predictor_->switch_count(l));
      } else {
        site.kind = static_cast<BranchKind>(r.branch_kinds[l]);
        s.counts.push_back(predictor_->count(l, site.kind));
      }
      s.sites.push_back(site);
    }
    s.exec_busy.assign(exec_busy_.begin(), exec_busy_.end());
    s.pending_fire.clear();
    if (idus_ > 1) {
      for (std::size_t p = 0; p < exec_busy_.size(); ++p) {
        const std::vector<std::int32_t>& q = pending_fire_[p];
        s.pending_fire.push_back(static_cast<std::int32_t>(q.size()));
        s.pending_fire.insert(s.pending_fire.end(), q.begin(), q.end());
      }
    }
  }

  // Whether two captures over the same lanes hold the same state.
  static bool ff_same(const FfSnapshot& a, const FfSnapshot& b) {
    return a.active_exec == b.active_exec && a.open_span == b.open_span &&
           a.events == b.events && a.state == b.state && a.pops == b.pops &&
           a.fwd == b.fwd && a.nodes == b.nodes && a.buffered == b.buffered &&
           a.exec_busy == b.exec_busy && a.pending_fire == b.pending_fire;
  }

  // The largest n <= cap such that site s decides at counts
  // c + k·d + j as it did at c + j, for every k in 1..n and j < d. Its
  // outcomes repeat with period q in the count, so a window of min(d, q)
  // counts and one cycle of k (q / gcd(d, q)) decide it.
  std::int64_t ff_repeat_run(const FfSite& s, std::int64_t c, std::int64_t d,
                             std::int64_t cap) const {
    const std::int64_t q =
        s.arms > 0 ? s.arms : (s.kind == BranchKind::Forward ? 2 : 10);
    if (d % q == 0) return cap;
    auto outcome = [&](std::int64_t count) -> std::int64_t {
      return s.arms > 0 ? BranchPredictor::switch_arm_at(count, s.arms)
                        : predictor_->taken_at(s.kind, count);
    };
    const std::int64_t window = std::min(d, q);
    const std::int64_t cycle = q / std::gcd(d, q);
    for (std::int64_t k = 1; k < cycle && k <= cap; ++k) {
      for (std::int64_t j = 0; j < window; ++j) {
        if (outcome(c + k * d + j) != outcome(c + j)) return k - 1;
      }
    }
    return cap;
  }

  // `live` repeats `s` exactly, p latch periods later: skips as many
  // further templates as the budget and the predictor allow. Returns
  // whether it skipped any.
  bool ff_skip(ResidentRt& r, const FfSnapshot& s, const FfSnapshot& live,
               std::int32_t p) {
    const std::int64_t dt = live.at.now - s.at.now;
    if (dt <= 0) return false;
    // The budget: the skipped templates process ticks up to now + n·dt,
    // and the drain step after each checks the next tick against
    // max_ticks, so none of them may pass it.
    std::int64_t n = (opt_.max_ticks - now_) / dt;
    // Counters and epochs stay in range, as they would event by event.
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    for (std::size_t i = 0; i < s.sites.size() && n > 0; ++i) {
      const std::int64_t d = live.counts[i] - s.counts[i];
      if (d <= 0) continue;
      n = std::min(n, (kMax - live.counts[i]) / d);
      n = ff_repeat_run(s.sites[i], s.counts[i], d, n);
    }
    for (std::size_t i = 0; i < s.epoch.size() && n > 0; ++i) {
      const std::int64_t de = live.epoch[i] - s.epoch[i];
      if (de > 0) n = std::min(n, (kMax - live.epoch[i]) / de);
    }
    if (n <= 0) return false;
    ff_shift(r, s, live, n);
    work_.ff_periods += n * p;
    work_.ff_messages +=
        n * (live.at.serial - s.at.serial + live.at.mesh - s.at.mesh);
    return true;
  }

  // Moves the live state n templates ahead.
  void ff_shift(ResidentRt& r, const FfSnapshot& s, const FfSnapshot& live,
                std::int64_t n) {
    const std::int64_t dt = n * (live.at.now - s.at.now);
    const std::int64_t dseq = n * (live.at.seq - s.at.seq);

    const auto lo = static_cast<std::size_t>(s.lanes.lo);
    ff_.epoch_shift.resize(s.epoch.size());
    for (std::size_t i = 0; i < s.epoch.size(); ++i) {
      const auto de =
          static_cast<std::int32_t>(n * (live.epoch[i] - s.epoch[i]));
      ff_.epoch_shift[i] = de;
      epoch_[lo + i] += de;
    }
    // An in-flight operand keeps its distance to its consumer's epoch.
    // Lanes outside the snapshot were not touched: their epochs hold.
    auto shift_operand = [&](Slot& e) {
      if (e.kind() == EvKind::Mesh && e.node >= s.lanes.lo &&
          e.node <= s.lanes.hi) {
        e.aux += ff_.epoch_shift[static_cast<std::size_t>(e.node) - lo];
      }
    };

    // Ring buckets: each moves whole to its tick's new bucket.
    ff_.moved.clear();
    ff_for_each_bucket([&](std::int64_t, std::size_t bi) {
      for (Slot& e : buckets_[bi]) shift_operand(e);
      ff_.moved.push_back(bi);
    });
    if ((dt & bucket_mask_) != 0) {
      if (ff_.staged.size() < ff_.moved.size()) {
        ff_.staged.resize(ff_.moved.size());
      }
      for (std::size_t i = 0; i < ff_.moved.size(); ++i) {
        const std::size_t bi = ff_.moved[i];
        ff_.staged[i].swap(buckets_[bi]);
        cal_words_[bi >> 6] &= ~(std::uint64_t{1} << (bi & 63));
      }
      for (std::size_t i = 0; i < ff_.moved.size(); ++i) {
        const auto bi = static_cast<std::size_t>(
            (static_cast<std::int64_t>(ff_.moved[i]) + dt) & bucket_mask_);
        buckets_[bi].swap(ff_.staged[i]);
        cal_words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
      }
    }
    // The spill: a uniform shift of (tick, seq) keeps it a heap.
    for (Event& e : overflow_) {
      e.tick += dt;
      e.seq += dseq;
      shift_operand(e);
    }

    now_ += dt;
    cal_cur_ += dt;
    seq_ += dseq;
    r.last_change += dt;
    r.fired += n * (live.at.fired - s.at.fired);
    r.serial_msgs += n * (live.at.serial - s.at.serial);
    r.mesh_msgs += n * (live.at.mesh - s.at.mesh);
    r.acc1 += n * (live.acc1 - s.acc1);
    r.acc2 += n * (live.acc2 - s.acc2);
    for (std::size_t i = 0; i < s.sites.size(); ++i) {
      const FfSite& site = s.sites[i];
      const auto by =
          static_cast<std::int32_t>(n * (live.counts[i] - s.counts[i]));
      if (by == 0) continue;
      if (site.arms > 0) {
        predictor_->advance_switch(site.site, by);
      } else {
        predictor_->advance(site.site, site.kind, by);
      }
    }
  }

  // ---- overlap accounting ----
  //
  // Per-residency acc1/acc2 integrate the Table 26 pair; the shared
  // kernel also integrates the fabric-level pair and the
  // distinct-residency pair over the global counters.
  void flush_fabric_accounting() {
    const std::int64_t span = now_ - fab_last_;
    if (span > 0) {
      if (fab_active_ >= 1) fab_acc1_ += span;
      if (fab_active_ >= 2) fab_acc2_ += span;
      if (res_exec_count_ >= 1) res_acc1_ += span;
      if (res_exec_count_ >= 2) res_acc2_ += span;
    }
    fab_last_ = now_;
  }

  void exec_delta(ResidentRt& r, int delta) {
    if constexpr (kShared) flush_fabric_accounting();
    if (!kShared || !r.done) {
      if (r.active_exec >= 1) r.acc1 += now_ - r.last_change;
      if (r.active_exec >= 2) r.acc2 += now_ - r.last_change;
      r.last_change = now_;
    }
    const int before = r.active_exec;
    r.active_exec += delta;
    if constexpr (kShared) {
      fab_active_ += delta;
      if (before == 0 && r.active_exec > 0) ++res_exec_count_;
      if (before > 0 && r.active_exec == 0) --res_exec_count_;
    }
  }

  // ---- completion ----

  void complete_resident(ResidentRt& r, std::int64_t end_tick) {
    r.completed = true;
    r.end_tick = end_tick;
    finalize_resident(r);
    if constexpr (kShared) completed_queue_.push_back(r.id);
  }

  // Freezes the residency's overlap accounting at the current tick and
  // fills its outcome. In-flight executions keep their IEUs busy until
  // their ExecDone events drain; those spans still count at fabric
  // level.
  void finalize_resident(ResidentRt& r) {
    if (r.active_exec >= 1) r.acc1 += now_ - r.last_change;
    if (r.active_exec >= 2) r.acc2 += now_ - r.last_change;
    r.last_change = now_;
    r.done = true;
    if constexpr (kShared) {
      --running_;
      ResidentOutcome& out = outcomes_[static_cast<std::size_t>(r.id)];
      out.resident = r.id;
      out.metrics = metrics_of(r);
      out.completed_tick = r.completed ? r.end_tick : -1;
      out.ring_wait_ticks = r.ring_wait;
      if (r.pending == 0) reclaim(r);
    }
  }

  RunMetrics metrics_of(const ResidentRt& r) const {
    RunMetrics mm;
    mm.fits = true;
    mm.completed = r.completed;
    mm.timed_out = r.timed_out;
    mm.exception = r.exception;
    mm.static_size = static_cast<std::int32_t>(r.method->code.size());
    mm.max_slot = r.plan->max_slot() + r.slot_delta;
    mm.ticks = (r.completed ? r.end_tick : now_) - r.inject_tick;
    mm.mesh_cycles = std::max<std::int64_t>(1, (mm.ticks + k_ - 1) / k_);
    mm.instructions_fired = r.fired;
    mm.distinct_fired = static_cast<std::int32_t>(
        std::count(distinct_.begin() + r.base,
                   distinct_.begin() + r.base + r.count, 1));
    mm.mesh_messages = r.mesh_msgs;
    mm.serial_messages = r.serial_msgs;
    mm.ticks_exec_1plus = r.acc1;
    mm.ticks_exec_2plus = r.acc2;
    return mm;
  }

  // Finalizes every still-running residency as timed out at `now` and
  // queues it for advance() to hand back. Shared rows are recycled, so
  // row order is not admission order: the queue gets them in ResidentId
  // order.
  void time_out_running() {
    const std::size_t first = completed_queue_.size();
    for (ResidentRt& r : residents_) {
      if (r.done) continue;
      r.timed_out = true;
      finalize_resident(r);
      if constexpr (kShared) completed_queue_.push_back(r.id);
    }
    std::sort(completed_queue_.begin() + static_cast<std::ptrdiff_t>(first),
              completed_queue_.end());
  }

  // The first event past the tick budget times every live residency
  // out and drops every undrained event (all owners are finished).
  void timeout_all(std::int64_t over_tick) {
    now_ = over_tick;
    cal_cur_ = over_tick;
    time_out_running();
    drop_pending();
    bucket_pos_ = 0;
  }

  MachineConfig cfg_;
  EngineOptions opt_;
  std::int64_t k_ = 1;
  std::int64_t hop_ = 1;
  std::int32_t idus_ = 1;

  std::vector<ResidentRt> residents_;        // shared: indexed by row
  std::vector<BranchPredictor> predictors_;  // shared: one per row
  BranchPredictor* predictor_ = nullptr;     // solo: the caller's
  std::vector<ResidentOutcome> outcomes_;    // shared: by ResidentId
  std::deque<ResidentId> completed_queue_;   // shared
  std::size_t running_ = 0;                  // shared
  // Shared free lists: reclaimed rows, and reclaimed lane windows' first
  // lanes by window size (a window is reused only at its exact size).
  std::vector<std::uint16_t> free_rows_;
  std::unordered_map<std::int32_t, std::vector<std::int32_t>> free_windows_;

  // ---- node lanes (index = residency base + local node) ----
  std::vector<NodeRt> nodes_;
  std::vector<std::uint8_t> state_;
  std::vector<std::int32_t> pops_;
  std::vector<std::int32_t> epoch_;
  std::vector<std::int32_t> fwd_;  // serial forward target (g + 1 until a
                                   // forward branch fires)
  std::vector<char> distinct_;
  std::vector<std::uint16_t> res_of_;     // shared: owner's row
  std::vector<std::int32_t> phys_lane_;   // shared: physical node per lane
  // Instrumented only: latest HEAD arrival, TAIL hold start, and the
  // edge that made each node fire-ready while its execution unit was
  // busy (FireStall attribution, idus > 1 only).
  std::vector<std::int64_t> head_tick_;
  std::vector<std::int64_t> tail_hold_;
  std::vector<std::int32_t> node_ready_edge_;

  // ---- physical fabric (index = global physical node) ----
  std::vector<char> exec_busy_;
  std::vector<std::vector<std::int32_t>> pending_fire_;
  // Shared ring occupancy: one channel per net::RingService.
  std::array<Occupancy, 4> ring_{};

  // ---- calendar ----
  std::vector<std::vector<Record>> buckets_;
  std::vector<std::uint64_t> cal_words_;  // one occupancy bit per bucket
  std::vector<Event> overflow_;
  std::vector<Token> flush_scratch_;            // flush_up bundle staging
  std::vector<std::int32_t> flush_edge_scratch_;  // its arrival edges
  std::int64_t ring_size_ = 0;
  std::int64_t bucket_mask_ = 0;
  std::int64_t cal_cur_ = 0;       // the calendar's tick cursor
  std::size_t bucket_pos_ = 0;     // dispatched prefix of its bucket
  std::int64_t live_events_ = 0;   // undrained events (buckets + spill)
  std::int64_t seq_ = 0;
  std::int64_t now_ = 0;
  // Edge id of the event being dispatched (flight recorder only) — the
  // default parent for everything its handler schedules.
  std::int32_t cur_edge_ = -1;
  std::int32_t exception_fires_ = 0;
  // Solo: the run's work counters. Uninstrumented solo: the loop
  // fast-forward's state.
  [[no_unique_address]] std::conditional_t<kShared, FfOff, RunWork> work_{};
  [[no_unique_address]] std::conditional_t<kFastForward, FastForward, FfOff>
      ff_{};

  // ---- fabric-level accounting (shared) ----
  int fab_active_ = 0;      // executing instructions, all residencies
  int res_exec_count_ = 0;  // residencies with >=1 executing instruction
  std::int64_t fab_last_ = 0;
  std::int64_t fab_acc1_ = 0;
  std::int64_t fab_acc2_ = 0;
  std::int64_t res_acc1_ = 0;
  std::int64_t res_acc2_ = 0;
};

}  // namespace javaflow::sim::detail
