#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "obs/critpath.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/engine_internal.hpp"

namespace javaflow::sim {
namespace {

using bytecode::Group;
using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;
using fabric::DataflowGraph;
using fabric::Edge;
using fabric::Fabric;
using fabric::Placement;
using net::Command;

// Token, NodeRt, the firing-state bits, the 32-byte Event record, and
// the calendar constants are shared with the multi-tenant MultiEngine
// (sim/engine_internal.hpp). Single-method runs leave Event::res at 0.
using detail::Event;
using detail::EventAfter;
using detail::EvKind;
using detail::is_switch;
using detail::kExecuting;
using detail::kFired;
using detail::kHeadReceived;
using detail::kInService;
using detail::kWaitTailFlush;
using detail::NodeRt;
using detail::Token;

// Sentinel `parent` for schedule(): attach the new dependency edge to
// the event currently being dispatched (flight recorder only).
constexpr std::int32_t kParentCurrent = -2;

}  // namespace

struct detail::EngineWorkspace {
  // Cold per-node state plus the struct-of-arrays hot lanes. The lanes
  // are indexed by linear instruction address, same as `nodes`.
  std::vector<NodeRt> nodes;
  std::vector<std::uint8_t> node_state;   // kHeadReceived|kFired|...
  std::vector<std::int32_t> node_pops;    // mesh operands received
  std::vector<std::int32_t> node_epoch;   // iteration epoch (mesh filter)
  std::vector<std::int32_t> node_fwd;     // serial forward target (i+1
                                          // until a forward branch fires)
  std::vector<std::int64_t> node_head_tick;  // latest HEAD arrival
  std::vector<std::int64_t> node_tail_hold;  // TAIL hold start
  std::vector<char> distinct;
  std::vector<char> node_exec_busy;
  std::vector<std::vector<std::int32_t>> pending_fire;

  // Legacy-path static lanes, filled by prepare_node() per run. On the
  // plan path the Run binds its static-lane pointers straight into the
  // ExecPlan arena instead and these stay untouched.
  std::vector<std::uint8_t> s_group;   // Instruction::group()
  std::vector<std::uint8_t> s_op;      // opcode byte
  std::vector<std::uint8_t> s_flags;   // kPlanBuffers|kPlanOrdered|...
  std::vector<std::int32_t> s_pop;     // operands required to fire
  std::vector<std::int32_t> s_local;   // bytecode::local_register
  std::vector<std::int32_t> s_phys;    // physical node of the slot
  std::vector<std::int32_t> s_target;  // branch target
  std::vector<std::int32_t> s_operand; // switch-table index
  std::vector<std::int32_t> s_exec;    // k * Table 17 cost, in ticks

  // Event-queue backing stores. `heap` backs the binary-heap scheduler;
  // `buckets`/`overflow`/`cal_words` back the calendar queue (one
  // occupancy bit per bucket, so empty-bucket scans are word-parallel
  // and end-of-run cleanup clears only dirty buckets). All grow
  // monotonically over the workspace lifetime so the sweep inner loop
  // stops paying reserve/allocation costs after the first few runs.
  std::vector<Event> heap;
  std::vector<std::vector<Event>> buckets;
  std::vector<std::uint64_t> cal_words;
  std::vector<Event> overflow;
  std::vector<Token> flush_scratch;  // flush_up bundle staging
  // Flight-recorder lanes: arrival edges of flushed tokens (parallels
  // flush_scratch) and the edge that made each node fire-ready while its
  // execution unit was busy (FireStall attribution, idus > 1 only).
  std::vector<std::int32_t> flush_edge_scratch;
  std::vector<std::int32_t> node_ready_edge;

  // classify_branches() cache: configuration-independent, so it only
  // needs recomputing when the engine is handed a different method.
  // Keyed on address + size + name so a recycled allocation holding a
  // different method cannot alias a stale classification.
  const bytecode::Method* branch_method = nullptr;
  std::size_t branch_code_size = 0;
  std::string branch_name;
  std::vector<std::uint8_t> branch_kinds;

  // Lowered-plan cache (EngineOptions::plan == On): the plan for the
  // most recent method, keyed like the branch cache plus a slot-lane
  // equality check when the caller supplies an external placement (the
  // fabric manager re-places co-resident methods, so the same method
  // can legitimately arrive with different slots). The builder's
  // scratch and the plan's arena both grow monotonically across
  // rebuilds.
  const bytecode::Method* plan_method = nullptr;
  std::size_t plan_code_size = 0;
  std::string plan_name;
  bool plan_valid = false;
  bool plan_external = false;
  ExecPlan plan;
  ExecPlanBuilder plan_builder;
};

namespace {

// One engine run. `kInstr` compiles the telemetry hooks in or out: the
// uninstrumented instantiation (no metrics/tracer/flight/trace) folds
// every null-check guard to a constant, so the sweep hot path carries
// zero instrumentation branches. `kCal` selects the scheduler at
// compile time, so the per-event enqueue path has no implementation
// branch either. Static per-node data is read through raw const
// pointers that alias either the ExecPlan arena (plan path) or the
// workspace's legacy lanes (prepare_node path).
template <bool kInstr, bool kCal>
class Run {
 public:
  Run(const MachineConfig& cfg, const EngineOptions& opt, const Method& m,
      const DataflowGraph* graph, BranchPredictor& predictor,
      const Placement* placement, const ExecPlan* plan,
      detail::EngineWorkspace& ws)
      : external_placement_(placement),
        plan_(plan),
        cfg_(cfg),
        opt_(opt),
        m_(m),
        graph_(graph),
        predictor_(predictor),
        k_(cfg.serial_per_mesh),
        hop_(cfg.collapsed() ? 0 : 1),
        idus_(std::max(cfg.idus_per_node, 1)),
        trace_(opt.trace),
        mx_(opt.metrics),
        tr_(opt.tracer),
        fr_(opt.flight),
        ws_(ws),
        node_exec_busy_(ws.node_exec_busy),
        pending_fire_(ws.pending_fire),
        nodes_(ws.nodes),
        state_(ws.node_state),
        pops_(ws.node_pops),
        epoch_(ws.node_epoch),
        fwd_(ws.node_fwd),
        head_tick_(ws.node_head_tick),
        tail_hold_(ws.node_tail_hold),
        distinct_(ws.distinct),
        heap_(ws.heap),
        buckets_(ws.buckets),
        cal_words_(ws.cal_words),
        overflow_(ws.overflow),
        flush_scratch_(ws.flush_scratch),
        flush_edge_scratch_(ws.flush_edge_scratch),
        node_ready_edge_(ws.node_ready_edge) {
    // The legacy walk needs a live Fabric (placement, mesh routing);
    // the plan path reads everything from the lowered arena.
    if (plan_ == nullptr) fabric_.emplace(cfg.fabric_options());
  }

  // Physical Instruction Node hosting an IDU chain slot (§4.2).
  std::int32_t phys_of_slot(std::int32_t slot) const { return slot / idus_; }

  RunMetrics execute() {
    RunMetrics metrics;
    // An unfit or timed-out run leaves the recorder without a terminal
    // edge, which attribute() reports as invalid — never as zeros.
    if (fr() != nullptr) fr()->reset();
    metrics.static_size = static_cast<std::int32_t>(m_.code.size());
    const std::size_t nn = m_.code.size();
    if (plan_ != nullptr) {
      if (!plan_->fits()) return metrics;
      metrics.fits = true;
      metrics.max_slot = plan_->max_slot();
      max_phys_ = plan_->max_phys();
      group_ = plan_->group();
      op_ = plan_->op();
      nflags_ = plan_->flags();
      bkinds_ = plan_->branch_kinds();
      pop_need_ = plan_->pop_need();
      local_reg_ = plan_->local_reg();
      phys_ = plan_->phys();
      target_ = plan_->target();
      operand_ = plan_->operand();
      exec_cost_ = plan_->exec_cost_ticks();
    } else {
      placement_ = external_placement_ != nullptr
                       ? *external_placement_
                       : fabric::load_method(*fabric_, m_);
      if (!placement_.fits) return metrics;
      metrics.fits = true;
      metrics.max_slot = placement_.max_slot;
      max_phys_ = phys_of_slot(placement_.max_slot);
      ws_.s_group.resize(nn);
      ws_.s_op.resize(nn);
      ws_.s_flags.resize(nn);
      ws_.s_pop.resize(nn);
      ws_.s_local.resize(nn);
      ws_.s_phys.resize(nn);
      ws_.s_target.resize(nn);
      ws_.s_operand.resize(nn);
      ws_.s_exec.resize(nn);
      for (std::size_t i = 0; i < nn; ++i) prepare_node(i);
      group_ = ws_.s_group.data();
      op_ = ws_.s_op.data();
      nflags_ = ws_.s_flags.data();
      bkinds_ = ws_.branch_kinds.data();
      pop_need_ = ws_.s_pop.data();
      local_reg_ = ws_.s_local.data();
      phys_ = ws_.s_phys.data();
      target_ = ws_.s_target.data();
      operand_ = ws_.s_operand.data();
      exec_cost_ = ws_.s_exec.data();
    }

    node_exec_busy_.assign(static_cast<std::size_t>(max_phys_ + 1), 0);
    // Keep the per-physical-node pending lists (and their capacity)
    // across runs; only the entries this method can touch need clearing.
    if (pending_fire_.size() < node_exec_busy_.size()) {
      pending_fire_.resize(node_exec_busy_.size());
    }
    for (std::size_t i = 0; i < node_exec_busy_.size(); ++i) {
      pending_fire_[i].clear();
    }
    nodes_.resize(nn);
    for (std::size_t i = 0; i < nn; ++i) nodes_[i].reset_cold();
    state_.assign(nn, 0);
    pops_.assign(nn, 0);
    epoch_.assign(nn, 0);
    fwd_.resize(nn);
    for (std::size_t i = 0; i < nn; ++i) {
      fwd_[i] = static_cast<std::int32_t>(i) + 1;
    }
    if (mx() != nullptr) {
      head_tick_.assign(nn, -1);
      tail_hold_.assign(nn, -1);
    }
    distinct_.assign(nn, 0);
    if (fr() != nullptr) node_ready_edge_.assign(nn, -1);

    if constexpr (kCal) {
      init_calendar();
    } else {
      init_heap();
    }
    inject_bundle();
    if constexpr (kCal) {
      run_calendar(metrics);
    } else {
      run_heap(metrics);
    }

    flush_exec_accounting();
    metrics.completed = completed_;
    metrics.exception = exception_raised_;
    metrics.ticks = completed_ ? end_tick_ : now_;
    metrics.mesh_cycles =
        std::max<std::int64_t>(1, (metrics.ticks + k_ - 1) / k_);
    metrics.instructions_fired = fired_count_;
    metrics.distinct_fired = static_cast<std::int32_t>(
        std::count(distinct_.begin(), distinct_.end(), 1));
    metrics.mesh_messages = mesh_messages_;
    metrics.serial_messages = serial_messages_;
    metrics.ticks_exec_1plus = acc_1plus_;
    metrics.ticks_exec_2plus = acc_2plus_;
    if (mx() != nullptr) ++mx()->runs;
    return metrics;
  }

 private:
  // Telemetry access, compiled out entirely when !kInstr (the pointers
  // fold to null constants and every guarded site dead-code-eliminates).
  obs::MetricsRegistry* mx() const { return kInstr ? mx_ : nullptr; }
  obs::EventTracer* tr() const { return kInstr ? tr_ : nullptr; }
  obs::FlightRecorder* fr() const { return kInstr ? fr_ : nullptr; }
  bool trace_on() const { return kInstr && trace_; }

  bool flag(std::size_t u, std::uint8_t f) const {
    return (nflags_[u] & f) != 0;
  }

  // Legacy-path lowering of one node into the workspace static lanes —
  // exactly what ExecPlanBuilder precomputes once per (method, config).
  void prepare_node(std::size_t i) {
    const Instruction& inst = m_.code[i];
    const Group g = inst.group();
    ws_.s_group[i] = static_cast<std::uint8_t>(g);
    ws_.s_op[i] = static_cast<std::uint8_t>(inst.op);
    const bool sw = is_switch(inst.op);
    const bool is_goto = inst.op == Op::goto_ || inst.op == Op::goto_w;
    std::uint8_t f = 0;
    if (g == Group::ControlFlow || g == Group::Return || sw) {
      f |= kPlanBuffers;
    }
    if (g == Group::MemRead || g == Group::MemWrite) f |= kPlanOrdered;
    if (is_goto) f |= kPlanGoto;
    if (is_goto && inst.target < static_cast<std::int32_t>(i)) {
      f |= kPlanBackwardGoto;
    }
    if (sw) f |= kPlanSwitch;
    ws_.s_flags[i] = f;
    ws_.s_pop[i] = inst.pop;
    ws_.s_local[i] = bytecode::local_register(inst);
    ws_.s_phys[i] = phys_of_slot(placement_.slot_of[i]);
    ws_.s_target[i] = inst.target;
    ws_.s_operand[i] = inst.operand;
    ws_.s_exec[i] = static_cast<std::int32_t>(
        k_ * bytecode::execution_mesh_cycles(g));
  }

  // Iteration reset (loop replay): clears the hot lanes and the cold
  // routing state, and bumps the epoch so in-flight mesh operands from
  // the previous trip are discarded on arrival.
  void reset_node(std::int32_t i) {
    const auto u = static_cast<std::size_t>(i);
    state_[u] = 0;
    pops_[u] = 0;
    ++epoch_[u];
    fwd_[u] = i + 1;
    if (mx() != nullptr) {
      head_tick_[u] = -1;
      tail_hold_[u] = -1;
    }
    nodes_[u].reset_cold();
  }

  // ---- schedulers ----
  //
  // Both hand events out in ascending (tick, seq): the binary heap by
  // comparator, the calendar queue by construction — every bucket in the
  // active window holds exactly one tick with events appended in seq
  // order (overflow spill migrates into the window before any same-tick
  // event can be scheduled directly, and seq grows monotonically with
  // scheduling time). docs/PERF.md sketches the full argument;
  // tests/test_scheduler.cpp asserts bit-identical output.

  void init_heap() {
    heap_.clear();
    // Amortize event-queue growth: outstanding events scale with the
    // token bundle plus in-flight mesh traffic, both O(method size).
    // Monotonic over the workspace lifetime — once a previous run grew
    // the buffer this is a no-op, not a fresh reserve.
    const std::size_t want = std::max<std::size_t>(64, 4 * m_.code.size());
    if (heap_.capacity() < want) heap_.reserve(want);
  }

  void init_calendar() {
    const std::int64_t b =
        detail::calendar_buckets(cfg_, max_phys_, m_.max_locals);
    bucket_count_ = b;
    bucket_mask_ = b - 1;
    if (buckets_.size() < static_cast<std::size_t>(b)) {
      buckets_.resize(static_cast<std::size_t>(b));
    }
    const std::size_t nwords = buckets_.size() >> 6;
    if (cal_words_.size() < nwords) cal_words_.resize(nwords, 0);
    // A completed run can leave undrained events behind, but only in
    // buckets whose occupancy bit is still set — clear exactly those
    // instead of sweeping the whole ring.
    for (std::size_t w = 0; w < cal_words_.size(); ++w) {
      std::uint64_t bits = cal_words_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        buckets_[(w << 6) | static_cast<std::size_t>(bit)].clear();
      }
      cal_words_[w] = 0;
    }
    overflow_.clear();
    cal_cur_ = 0;
    live_events_ = 0;
  }

  [[gnu::always_inline]] inline void bucket_insert(const Event& ev) {
    const auto bi = static_cast<std::size_t>(ev.tick & bucket_mask_);
    buckets_[bi].push_back(ev);
    cal_words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
  }

  // Slow enqueue paths, kept out of line so the hot path below stays
  // small enough to inline into every schedule site.
  [[gnu::noinline]] void enqueue_overflow(const Event& ev) {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  }
  [[gnu::noinline]] void enqueue_heap(const Event& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }

  // Every schedule site names the delay category its event represents;
  // with the recorder attached, one dependency edge is captured per
  // event. `parent` -2 means "the event being dispatched right now"
  // (cur_edge_); hold-release sites pass an explicit splice edge
  // instead. Without a recorder the extra arguments are dead and the
  // hook is the usual single null check. Force-inlined: the Event is
  // 32 bytes, so an out-of-line call would shuttle it through the
  // stack twice per event — measurably the hottest cost in the sweep.
  [[gnu::always_inline]] inline void schedule(
      Event ev, obs::PathCategory cat,
      std::int32_t parent = kParentCurrent, std::int32_t from_phys = -1,
      std::int32_t to_phys = -1, std::uint8_t opcode = 0) {
    ev.seq = seq_++;
    if (fr() != nullptr) {
      fr()->record_event(
          ev.seq,
          {now_, ev.tick, parent == kParentCurrent ? cur_edge_ : parent,
           ev.node, from_phys, to_phys, cat, opcode});
    }
    if constexpr (kCal) {
      ++live_events_;
      if (ev.tick < cal_cur_ + bucket_count_) [[likely]] {
        bucket_insert(ev);
      } else {
        enqueue_overflow(ev);
      }
    } else {
      enqueue_heap(ev);
    }
  }

  // Pull every spilled event whose tick entered the active window into
  // its bucket. Called before any draining/scheduling at the current
  // tick, so spilled events always precede later direct insertions and
  // buckets stay seq-sorted.
  void migrate_overflow() {
    while (!overflow_.empty() &&
           overflow_.front().tick < cal_cur_ + bucket_count_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
      const Event ev = overflow_.back();
      overflow_.pop_back();
      bucket_insert(ev);
    }
  }

  // Tick of the next non-empty bucket strictly after cal_cur_, found by
  // a word-parallel circular scan of the occupancy bitmap (the window
  // holds at most one tick per bucket, so a set bit maps to exactly one
  // pending tick). INT64_MAX when every bucket is empty.
  std::int64_t next_bucket_tick() const {
    const auto mask = static_cast<std::uint64_t>(bucket_mask_);
    const std::uint64_t start =
        (static_cast<std::uint64_t>(cal_cur_) + 1) & mask;
    const auto nwords = static_cast<std::size_t>(bucket_count_ >> 6);
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

  void run_heap(RunMetrics& metrics) {
    while (!heap_.empty() && !completed_) {
      std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
      const Event ev = heap_.back();
      heap_.pop_back();
      now_ = ev.tick;
      if (trace_on()) trace_event(ev);
      if (now_ > opt_.max_ticks) {
        metrics.timed_out = true;
        break;
      }
      if (fr() != nullptr) cur_edge_ = fr()->edge_of_seq(ev.seq);
      dispatch(ev);
    }
  }

  void run_calendar(RunMetrics& metrics) {
    while (live_events_ > 0 && !completed_) {
      migrate_overflow();
      auto bix = static_cast<std::size_t>(cal_cur_ & bucket_mask_);
      std::vector<Event>* bucket = &buckets_[bix];
      while (bucket->empty()) {
        // Jump straight to the next pending tick: the earlier of the
        // next occupied bucket (bitmap scan) and the overflow front —
        // never walk empty buckets one at a time.
        std::int64_t next = next_bucket_tick();
        if (!overflow_.empty() && overflow_.front().tick < next) {
          next = overflow_.front().tick;
        }
        cal_cur_ = next;
        migrate_overflow();
        bix = static_cast<std::size_t>(cal_cur_ & bucket_mask_);
        bucket = &buckets_[bix];
      }
      now_ = cal_cur_;
      if (now_ > opt_.max_ticks) {
        // Match the heap's abort trace: it pops (and prints) exactly the
        // first over-budget event before giving up.
        if (trace_on()) trace_event(bucket->front());
        metrics.timed_out = true;
        break;
      }
      // Batch-drain the whole tick: now_ is set once, and the index scan
      // tolerates the bucket growing underneath us (zero-delay serial
      // forwards in the collapsed Baseline land on the current tick,
      // always with a larger seq — i.e. behind the scan point).
      std::size_t i = 0;
      for (; i < bucket->size() && !completed_; ++i) {
        const Event ev = (*bucket)[i];
        if (trace_on()) trace_event(ev);
        if (fr() != nullptr) cur_edge_ = fr()->edge_of_seq(ev.seq);
        dispatch(ev);
      }
      live_events_ -= static_cast<std::int64_t>(i);
      bucket->clear();
      cal_words_[bix >> 6] &= ~(std::uint64_t{1} << (bix & 63));
      ++cal_cur_;
    }
  }

  void dispatch(const Event& ev) {
    switch (ev.kind()) {
      case EvKind::Serial:
        on_serial(ev.node, Token{ev.cmd, ev.aux});
        break;
      case EvKind::Mesh:
        on_mesh(ev.node, ev.side(), ev.aux, ev.prod);
        break;
      case EvKind::ExecDone: on_exec_done(ev.node); break;
      case EvKind::ServiceDone: on_service_done(ev.node); break;
    }
  }

  void trace_event(const Event& ev) {
    const char* kind = ev.kind() == EvKind::Serial ? "serial"
                       : ev.kind() == EvKind::Mesh ? "mesh"
                       : ev.kind() == EvKind::ExecDone ? "exec" : "svc";
    std::fprintf(stderr, "t=%lld %s node=%d", (long long)ev.tick, kind,
                 ev.node);
    if (ev.kind() == EvKind::Serial) {
      std::fprintf(stderr, " cmd=%s reg=%d",
                   std::string(net::command_name(ev.cmd)).c_str(), ev.aux);
    }
    if (ev.kind() == EvKind::Mesh) {
      std::fprintf(stderr, " side=%d epoch=%d", ev.side(), ev.aux);
    }
    std::fprintf(stderr, "\n");
  }

  // ---- scheduling helpers ----
  std::int64_t serial_delay(std::int32_t from_node, std::int32_t to_node) {
    const std::int32_t a =
        from_node < 0 ? -1 : phys_[static_cast<std::size_t>(from_node)];
    const std::int32_t b = phys_[static_cast<std::size_t>(to_node)];
    const std::int64_t hops = a < 0 ? b + 1 : (a < b ? b - a : a - b);
    return hop_ * std::max<std::int64_t>(hops, 1);
  }

  void send_serial(std::int32_t from_node, std::int32_t to_node,
                   Token tok, std::int64_t extra = 0,
                   std::int32_t parent_edge = kParentCurrent) {
    if (to_node < 0 ||
        static_cast<std::size_t>(to_node) >= nodes_.size()) {
      return;  // token falls off the chain (e.g. past the bottom)
    }
    ++serial_messages_;
    const std::int64_t delay = serial_delay(from_node, to_node);
    if (mx() != nullptr) {
      ++mx()->serial_messages;
      mx()->serial_hop_ticks += static_cast<std::uint64_t>(delay);
      ++mx()->serial_commands[static_cast<std::size_t>(tok.cmd)];
    }
    Event ev;
    ev.set(EvKind::Serial);
    ev.node = to_node;
    ev.cmd = tok.cmd;
    ev.aux = tok.reg;
    ev.tick = now_ + delay + extra;
    schedule(ev, obs::PathCategory::SerialTransit, parent_edge);
  }

  void send_mesh(std::int32_t producer) {
    const auto u = static_cast<std::size_t>(producer);
    const std::int32_t from_phys = phys_[u];
    if (plan_ != nullptr) {
      // Plan fast path: CSR edges with delivery already in ticks; route
      // links replay from the arena in the exact X-Y walk order.
      const std::int32_t* eb = plan_->edge_begin();
      const PlanEdge* e = plan_->edges() + eb[u];
      const PlanEdge* const end = plan_->edges() + eb[u + 1];
      for (; e != end; ++e) {
        ++mesh_messages_;
        if (mx() != nullptr) record_mesh_metrics_plan(*e);
        Event ev;
        ev.set(EvKind::Mesh, e->side);
        ev.node = e->consumer;
        ev.prod = producer;
        ev.aux = epoch_[static_cast<std::size_t>(e->consumer)];
        ev.tick = now_ + e->delivery_ticks;
        schedule(ev, obs::PathCategory::MeshTransit, kParentCurrent,
                 from_phys, e->to_phys);
      }
      return;
    }
    for (const Edge& e : graph_->consumers_of[u]) {
      if (e.back) continue;  // absent in valid Java (Table 7)
      ++mesh_messages_;
      const std::int32_t to_phys =
          phys_[static_cast<std::size_t>(e.consumer)];
      const std::int64_t cycles = fabric_->mesh_cycles(from_phys, to_phys);
      if (mx() != nullptr) record_mesh_metrics(from_phys, to_phys, cycles);
      Event ev;
      ev.set(EvKind::Mesh, e.side);
      ev.node = e.consumer;
      ev.prod = producer;
      ev.aux = epoch_[static_cast<std::size_t>(e.consumer)];
      ev.tick = now_ + k_ * cycles;
      schedule(ev, obs::PathCategory::MeshTransit, kParentCurrent,
               from_phys, to_phys);
    }
  }

  // ---- flight recorder (critical-path attribution) ----
  //
  // A token that sat held at a node between delivery and release gets a
  // synthetic hold edge spliced in: [arrival end, now]. The release's
  // transit edge then parents on the hold edge, so attribute() walks
  // release -> hold -> arrival with no tick gap — waiting time becomes
  // its own category instead of disappearing into the next hop. Callers
  // invoke this only with the recorder attached.
  std::int32_t hold_edge(std::int32_t node, std::int32_t arrival_edge,
                         obs::PathCategory cat) {
    if (arrival_edge < 0) return cur_edge_;  // defensive: unknown arrival
    const std::int64_t arrived =
        fr()->edges()[static_cast<std::size_t>(arrival_edge)].to_tick;
    return fr()->record(
        {arrived, now_, arrival_edge, node, -1, -1, cat, 0});
  }


  // ---- telemetry (every site is a single null check when disabled) ----
  void record_mesh_metrics(std::int32_t from_phys, std::int32_t to_phys,
                           std::int64_t cycles) {
    ++mx()->mesh_messages;
    mx()->mesh_transit_cycles += static_cast<std::uint64_t>(cycles);
    fabric_->mesh().for_each_route_link(
        from_phys, to_phys,
        [&](std::int32_t src, std::int32_t dx, std::int32_t dy) {
          const obs::LinkDir dir = dx > 0   ? obs::LinkDir::East
                                   : dx < 0 ? obs::LinkDir::West
                                   : dy > 0 ? obs::LinkDir::North
                                            : obs::LinkDir::South;
          mx()->mesh_link(src, dir);
        });
  }

  void record_mesh_metrics_plan(const PlanEdge& e) {
    ++mx()->mesh_messages;
    mx()->mesh_transit_cycles += static_cast<std::uint64_t>(e.mesh_cycles);
    const PlanRouteLink* link = plan_->route_links() + e.route_begin;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      mx()->mesh_link(link->src_phys, static_cast<obs::LinkDir>(link->dir));
    }
  }

  // Called after every buffered.push_back: keeps the high-water mark
  // and (recorder attached) the parallel arrival-edge list in sync.
  void note_buffered(std::int32_t node, NodeRt& n) {
    if (fr() != nullptr) n.buffered_edges.push_back(cur_edge_);
    if (mx() != nullptr) {
      mx()->buffer_high_water(phys_[static_cast<std::size_t>(node)],
                              n.buffered.size());
    }
  }

  void record_service(std::int32_t node, net::RingService svc,
                      std::int64_t ticks) {
    if (mx() != nullptr) {
      ++mx()->ring_requests[static_cast<std::size_t>(svc)];
      mx()->ring_latency_ticks[static_cast<std::size_t>(svc)].record(ticks);
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::ServiceStart, node,
                    phys_[static_cast<std::size_t>(node)],
                    static_cast<std::uint8_t>(svc), ticks});
    }
  }

  // ---- execution-overlap accounting (Table 26) ----
  void exec_delta(int delta) {
    if (active_exec_ >= 1) acc_1plus_ += now_ - last_exec_change_;
    if (active_exec_ >= 2) acc_2plus_ += now_ - last_exec_change_;
    last_exec_change_ = now_;
    active_exec_ += delta;
  }
  void flush_exec_accounting() {
    if (active_exec_ >= 1) acc_1plus_ += now_ - last_exec_change_;
    if (active_exec_ >= 2) acc_2plus_ += now_ - last_exec_change_;
    last_exec_change_ = now_;
  }

  // ---- token bundle ----
  void inject_bundle() {
    const std::int64_t spacing = hop_ == 0 ? 0 : 1;
    std::int64_t idx = 0;
    now_ = 0;
    send_serial(-1, 0, Token{Command::HeadToken, -1}, spacing * idx++);
    send_serial(-1, 0, Token{Command::MemoryToken, -1}, spacing * idx++);
    for (std::int32_t r = 0; r < m_.max_locals; ++r) {
      send_serial(-1, 0, Token{Command::RegisterToken, r}, spacing * idx++);
    }
    send_serial(-1, 0, Token{Command::TailToken, -1}, spacing * idx++);
  }

  // ---- serial handlers ----
  void forward_token(std::int32_t node, Token tok,
                     std::int32_t parent_edge = kParentCurrent) {
    send_serial(node, fwd_[static_cast<std::size_t>(node)], tok,
                /*extra=*/0, parent_edge);
  }

  void on_serial(std::int32_t node, Token tok) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::TokenDeliver, node,
                    phys_[u], static_cast<std::uint8_t>(tok.cmd), 0});
    }
    const std::uint8_t st = state_[u];
    const bool buffers = flag(u, kPlanBuffers);
    // Control-transfer nodes hold the bundle while unfired AND while a
    // fired backward transfer awaits its TAIL — those tokens are the
    // bundle that will replay around the loop (§6.3).
    const bool hold =
        buffers && (!(st & kFired) || (st & kWaitTailFlush) != 0);

    switch (tok.cmd) {
      case Command::HeadToken:
        state_[u] |= kHeadReceived;
        if (mx() != nullptr) head_tick_[u] = now_;
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          try_fire(node);
        } else {
          try_fire(node);
          forward_token(node, tok);  // the HEAD runs ahead (§6.3)
        }
        return;

      case Command::MemoryToken:
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          return;
        }
        if (flag(u, kPlanOrdered) && !(state_[u] & kFired)) {
          n.memory_held = true;
          n.held_memory = tok;
          if (fr() != nullptr) n.held_memory_edge = cur_edge_;
          try_fire(node);
          return;
        }
        forward_token(node, tok);
        return;

      case Command::RegisterToken: {
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          return;
        }
        const Group g = static_cast<Group>(group_[u]);
        if ((g == Group::LocalRead || g == Group::LocalInc) &&
            local_reg_[u] == tok.reg && !(state_[u] & kFired) &&
            !n.reg_held) {
          n.reg_held = true;
          n.held_reg = tok;
          if (fr() != nullptr) n.held_reg_edge = cur_edge_;
          try_fire(node);
          return;
        }
        if (g == Group::LocalWrite && local_reg_[u] == tok.reg) {
          if (!(state_[u] & kFired)) {
            n.write_absorbed = true;  // the write kills the old value
          } else if (n.kill_next_register) {
            n.kill_next_register = false;  // stale token after firing
          } else {
            forward_token(node, tok);
          }
          return;
        }
        forward_token(node, tok);
        return;
      }

      case Command::TailToken:
        if (buffers) {
          if (!(state_[u] & kFired)) {
            n.buffered.push_back(tok);
            note_buffered(node, n);
            n.tail_present = true;
            try_fire(node);  // returns / backward gotos need the TAIL
            return;
          }
          if (state_[u] & kWaitTailFlush) {
            n.buffered.push_back(tok);
            note_buffered(node, n);
            flush_up(node);
            return;
          }
          forward_token(node, tok);
          return;
        }
        if (state_[u] & kFired) {
          forward_token(node, tok);
        } else {
          n.tail_held = true;  // held until this node fires (§6.3)
          n.held_tail = tok;
          if (fr() != nullptr) n.held_tail_edge = cur_edge_;
          if (mx() != nullptr) tail_hold_[u] = now_;
        }
        return;

      default:
        forward_token(node, tok);
        return;
    }
  }

  void on_mesh(std::int32_t node, std::uint8_t side, std::int32_t epoch,
               std::int32_t producer) {
    const auto u = static_cast<std::size_t>(node);
    if (epoch_[u] != epoch) return;  // stale (previous iteration)
    if (tr() != nullptr) {
      // `dur` carries the producing node so the Chrome exporter can draw
      // producer->consumer flow arrows (docs/OBSERVABILITY.md).
      tr()->record({now_, obs::TraceEventKind::OperandArrive, node,
                    phys_[u], side, producer});
    }
    ++pops_[u];
    try_fire(node);
  }

  // ---- firing ----
  bool fire_ready(std::int32_t node) const {
    const auto u = static_cast<std::size_t>(node);
    // Exactly "HEAD received and nothing else": fired / executing /
    // in-service all block, so one byte compare covers five flags.
    if (state_[u] != kHeadReceived) return false;
    const NodeRt& n = nodes_[u];
    switch (static_cast<Group>(group_[u])) {
      case Group::LocalRead:
      case Group::LocalInc:
        return n.reg_held;
      case Group::MemRead:
      case Group::MemWrite:
        return pops_[u] >= pop_need_[u] && n.memory_held;
      case Group::Return:
        return pops_[u] >= pop_need_[u] && n.tail_present;
      case Group::ControlFlow:
        if (flag(u, kPlanBackwardGoto)) {
          return n.tail_present;  // backward GoTo fires on TAIL (§6.3)
        }
        return pops_[u] >= pop_need_[u];
      default:
        return pops_[u] >= pop_need_[u];
    }
  }

  void try_fire(std::int32_t node) {
    if (!fire_ready(node)) return;
    const auto u = static_cast<std::size_t>(node);
    // One Instruction Execution Unit per physical node: with several
    // IDUs packed into a node (§4.2), firings within a node serialize.
    const auto pn = static_cast<std::size_t>(phys_[u]);
    if (idus_ > 1 && node_exec_busy_[pn]) {
      // Remember what made the node ready: the gap until it actually
      // fires is FireStall time on the critical path.
      if (fr() != nullptr && node_ready_edge_[u] < 0) {
        node_ready_edge_[u] = cur_edge_;
      }
      pending_fire_[pn].push_back(node);
      return;
    }
    node_exec_busy_[pn] = true;
    state_[u] |= kExecuting;
    exec_delta(+1);
    const std::int64_t cost = exec_cost_[u];
    if (mx() != nullptr) {
      mx()->node_firing(static_cast<std::int32_t>(pn), op_[u]);
      mx()->exec_ticks_by_group[group_[u]].record(cost);
      if (head_tick_[u] >= 0) {
        mx()->fire_stall_ticks.record(now_ - head_tick_[u]);
      }
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireStart, node,
                    static_cast<std::int32_t>(pn), group_[u], cost});
    }
    std::int32_t parent = kParentCurrent;
    if (fr() != nullptr && node_ready_edge_[u] >= 0) {
      parent =
          hold_edge(node, node_ready_edge_[u], obs::PathCategory::FireStall);
      node_ready_edge_[u] = -1;
    }
    Event ev;
    ev.set(EvKind::ExecDone);
    ev.node = node;
    ev.tick = now_ + cost;
    schedule(ev, obs::PathCategory::Execution, parent, -1, -1, op_[u]);
  }

  void release_execution_unit(std::int32_t node) {
    const auto pn =
        static_cast<std::size_t>(phys_[static_cast<std::size_t>(node)]);
    node_exec_busy_[pn] = false;
    if (idus_ <= 1) return;
    auto& pending = pending_fire_[pn];
    while (!pending.empty()) {
      const std::int32_t next = pending.front();
      pending.erase(pending.begin());
      try_fire(next);
      if (node_exec_busy_[pn]) break;  // someone grabbed the unit
    }
  }

  void mark_fired(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    state_[u] |= kFired;
    ++fired_count_;
    distinct_[u] = true;
  }

  // Releases everything a non-control node owes downstream after firing.
  void post_fire_releases(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    const Group g = static_cast<Group>(group_[u]);
    if (g == Group::LocalRead || g == Group::LocalInc) {
      if (n.reg_held) {
        n.reg_held = false;
        forward_token(node, n.held_reg,  // register value flows on
                      fr() != nullptr
                          ? hold_edge(node, n.held_reg_edge,
                                      obs::PathCategory::OperandWait)
                          : kParentCurrent);
      }
    }
    if (g == Group::LocalWrite) {
      forward_token(node, Token{Command::RegisterToken, local_reg_[u]});
      if (!n.write_absorbed) n.kill_next_register = true;
    }
    if (n.memory_held) {
      n.memory_held = false;
      forward_token(node, n.held_memory,  // memory order established
                    fr() != nullptr
                        ? hold_edge(node, n.held_memory_edge,
                                    obs::PathCategory::OperandWait)
                        : kParentCurrent);
    }
    if (n.tail_held) {
      n.tail_held = false;
      if (mx() != nullptr && tail_hold_[u] >= 0) {
        mx()->tail_hold_ticks.record(now_ - tail_hold_[u]);
        tail_hold_[u] = -1;
      }
      forward_token(node, n.held_tail,
                    fr() != nullptr
                        ? hold_edge(node, n.held_tail_edge,
                                    obs::PathCategory::TailHold)
                        : kParentCurrent);
    }
  }

  void on_exec_done(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    state_[u] &= static_cast<std::uint8_t>(~kExecuting);
    exec_delta(-1);
    release_execution_unit(node);
    const Group g = static_cast<Group>(group_[u]);
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireComplete, node,
                    phys_[u], static_cast<std::uint8_t>(g), 0});
    }

    if (node == opt_.inject_exception_at &&
        ++exception_fire_count_ >= opt_.inject_exception_fire &&
        !exception_raised_) {
      // §6.3 Exceptions: the node halts, an EXCEPTION_TOKEN reaches the
      // GPP over the ring, and the GPP terminates the method.
      exception_raised_ = true;
      const std::int64_t svc_ticks = k_ * cfg_.ring.gpp_service;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::GppService, svc_ticks);
      }
      completed_ = true;
      end_tick_ = now_ + svc_ticks;
      // The exception retirement is the run's terminal edge: the GPP
      // round trip [now_, end_tick_] caps the realized critical path.
      if (fr() != nullptr) {
        fr()->set_terminal(fr()->record({now_, end_tick_, cur_edge_, node,
                                         -1, -1,
                                         obs::PathCategory::RingService,
                                         0}));
      }
      return;
    }

    const bool sw = flag(u, kPlanSwitch);
    if (g == Group::ControlFlow || sw) {
      resolve_control(node);
      return;
    }
    if (g == Group::Return) {
      mark_fired(node);
      completed_ = true;
      end_tick_ = now_;
      // The Return's own execution completion is the terminal edge.
      if (fr() != nullptr) fr()->set_terminal(cur_edge_);
      return;
    }
    if (g == Group::Call || g == Group::Special) {
      state_[u] |= kInService;
      const std::int64_t svc_ticks = k_ * cfg_.ring.gpp_service;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::GppService, svc_ticks);
      }
      Event ev;
      ev.set(EvKind::ServiceDone);
      ev.node = node;
      ev.tick = now_ + svc_ticks;
      schedule(ev, obs::PathCategory::RingService);
      return;
    }
    if (g == Group::MemRead) {
      state_[u] |= kInService;
      if (n.memory_held) {
        n.memory_held = false;
        forward_token(node, n.held_memory,
                      fr() != nullptr
                          ? hold_edge(node, n.held_memory_edge,
                                      obs::PathCategory::OperandWait)
                          : kParentCurrent);
      }
      const std::int64_t svc_ticks = k_ * cfg_.ring.memory_read;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::MemoryRead, svc_ticks);
      }
      Event ev;
      ev.set(EvKind::ServiceDone);
      ev.node = node;
      ev.tick = now_ + svc_ticks;
      schedule(ev, obs::PathCategory::RingService);
      return;
    }
    if (g == Group::MemWrite) {
      // Posted write: the node is fired once the request is dispatched.
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::MemoryWrite,
                       k_ * cfg_.ring.memory_write);
      }
      mark_fired(node);
      post_fire_releases(node);
      return;
    }
    // Arithmetic / moves / locals / constants: produce and release.
    mark_fired(node);
    send_mesh(node);
    post_fire_releases(node);
  }

  void on_service_done(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    state_[u] &= static_cast<std::uint8_t>(~kInService);
    if (tr() != nullptr) {
      const net::RingService svc =
          static_cast<Group>(group_[u]) == Group::MemRead
              ? net::RingService::MemoryRead
              : net::RingService::GppService;
      tr()->record({now_, obs::TraceEventKind::ServiceComplete, node,
                    phys_[u], static_cast<std::uint8_t>(svc), 0});
    }
    mark_fired(node);
    send_mesh(node);  // read data / call result to consumers
    post_fire_releases(node);
  }

  // Control-transfer decision and token routing (§6.3).
  void resolve_control(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    std::int32_t target;
    if (flag(u, kPlanGoto)) {
      target = target_[u];
    } else if (flag(u, kPlanSwitch)) {
      const bytecode::SwitchTable& table =
          m_.switches[static_cast<std::size_t>(operand_[u])];
      const auto arms =
          static_cast<std::int32_t>(table.targets.size()) + 1;
      const std::int32_t pick = predictor_.decide_switch(node, arms);
      target = pick < static_cast<std::int32_t>(table.targets.size())
                   ? table.targets[static_cast<std::size_t>(pick)]
                   : table.default_target;
    } else {
      const auto kind = static_cast<BranchKind>(bkinds_[u]);
      const bool taken = predictor_.decide(node, kind);
      target = taken ? target_[u] : node + 1;
    }

    mark_fired(node);
    if (target > node) {
      // Forward transfer: flush the buffer toward the target; later
      // tokens follow the same route until the iteration resets.
      fwd_[u] = target;
      std::int64_t idx = 0;
      for (std::size_t bi = 0; bi < n.buffered.size(); ++bi) {
        const Token& tok = n.buffered[bi];
        std::int32_t parent = kParentCurrent;
        if (fr() != nullptr) {
          // Buffered tokens waited from arrival to the branch decision:
          // TAIL hold for the TAIL, operand wait for the rest.
          parent = hold_edge(node,
                             bi < n.buffered_edges.size()
                                 ? n.buffered_edges[bi]
                                 : -1,
                             tok.cmd == Command::TailToken
                                 ? obs::PathCategory::TailHold
                                 : obs::PathCategory::OperandWait);
        }
        send_serial(node, target, tok, hop_ == 0 ? 0 : idx++, parent);
      }
      n.buffered.clear();
      n.buffered_edges.clear();
      return;
    }
    // Backward transfer: hold everything until the TAIL arrives (§6.3).
    state_[u] |= kWaitTailFlush;
    n.decided_target = target;
    if (n.tail_present) flush_up(node);
  }

  // Back jump with TAIL in hand: replay the bundle to the loop head via
  // the reverse network, resetting every node it passes. The bundle is
  // staged in the workspace scratch vector, so neither side of the swap
  // ever re-allocates once warmed up.
  void flush_up(std::int32_t node) {
    NodeRt& n = nodes_[static_cast<std::size_t>(node)];
    const std::int32_t target = n.decided_target;
    flush_scratch_.clear();
    flush_scratch_.swap(n.buffered);
    if (fr() != nullptr) {
      flush_edge_scratch_.clear();
      flush_edge_scratch_.swap(n.buffered_edges);
    }
    for (std::int32_t i = target; i <= node; ++i) {
      reset_node(i);
    }
    std::int64_t idx = 0;
    for (std::size_t bi = 0; bi < flush_scratch_.size(); ++bi) {
      const Token& tok = flush_scratch_[bi];
      std::int32_t parent = kParentCurrent;
      if (fr() != nullptr) {
        parent = hold_edge(node,
                           bi < flush_edge_scratch_.size()
                               ? flush_edge_scratch_[bi]
                               : -1,
                           tok.cmd == Command::TailToken
                               ? obs::PathCategory::TailHold
                               : obs::PathCategory::OperandWait);
      }
      send_serial(node, target, tok, hop_ == 0 ? 0 : idx++, parent);
    }
  }

  const Placement* external_placement_ = nullptr;
  const ExecPlan* plan_ = nullptr;
  const MachineConfig& cfg_;
  const EngineOptions& opt_;
  const Method& m_;
  const DataflowGraph* graph_;  // null on the plan path
  BranchPredictor& predictor_;
  std::optional<Fabric> fabric_;  // legacy path only
  const std::int64_t k_;
  const std::int64_t hop_;
  const std::int32_t idus_;
  const bool trace_;
  obs::MetricsRegistry* const mx_;  // null = telemetry disabled (no-op)
  obs::EventTracer* const tr_;
  obs::FlightRecorder* const fr_;   // null = no dependency-edge capture
  // Workspace-backed storage: all references point into the engine's
  // detail::EngineWorkspace and are re-initialized by execute().
  detail::EngineWorkspace& ws_;
  std::vector<char>& node_exec_busy_;
  std::vector<std::vector<std::int32_t>>& pending_fire_;

  Placement placement_;
  std::vector<NodeRt>& nodes_;
  // Struct-of-arrays hot lanes (same index space as nodes_).
  std::vector<std::uint8_t>& state_;
  std::vector<std::int32_t>& pops_;
  std::vector<std::int32_t>& epoch_;
  std::vector<std::int32_t>& fwd_;
  std::vector<std::int64_t>& head_tick_;
  std::vector<std::int64_t>& tail_hold_;
  std::vector<char>& distinct_;
  // Static per-node lanes: aliases into the ExecPlan arena (plan path)
  // or the workspace's prepare_node() lanes (legacy path). Read-only
  // for the whole run.
  const std::uint8_t* group_ = nullptr;
  const std::uint8_t* op_ = nullptr;
  const std::uint8_t* nflags_ = nullptr;
  const std::uint8_t* bkinds_ = nullptr;
  const std::int32_t* pop_need_ = nullptr;
  const std::int32_t* local_reg_ = nullptr;
  const std::int32_t* phys_ = nullptr;
  const std::int32_t* target_ = nullptr;
  const std::int32_t* operand_ = nullptr;
  const std::int32_t* exec_cost_ = nullptr;
  // Scheduler stores (heap_ for Heap; buckets_/overflow_ for Calendar).
  std::vector<Event>& heap_;
  std::vector<std::vector<Event>>& buckets_;
  std::vector<std::uint64_t>& cal_words_;
  std::vector<Event>& overflow_;
  std::vector<Token>& flush_scratch_;
  std::vector<std::int32_t>& flush_edge_scratch_;
  std::vector<std::int32_t>& node_ready_edge_;
  std::int32_t max_phys_ = -1;
  std::int64_t bucket_count_ = 0;
  std::int64_t bucket_mask_ = 0;
  std::int64_t cal_cur_ = 0;     // calendar's current tick cursor
  std::int64_t live_events_ = 0; // undrained events (buckets + overflow)
  std::int64_t seq_ = 0;
  std::int64_t now_ = 0;
  // Edge id of the event currently being dispatched (flight recorder
  // only) — the default parent for everything the handler schedules.
  std::int32_t cur_edge_ = -1;
  bool completed_ = false;
  bool exception_raised_ = false;
  std::int32_t exception_fire_count_ = 0;
  std::int64_t end_tick_ = 0;
  std::int64_t fired_count_ = 0;
  std::int64_t mesh_messages_ = 0;
  std::int64_t serial_messages_ = 0;
  int active_exec_ = 0;
  std::int64_t last_exec_change_ = 0;
  std::int64_t acc_1plus_ = 0;
  std::int64_t acc_2plus_ = 0;
};

// Refreshes the workspace's branch-classification cache for `m`. The
// classification depends only on the bytecode, so back-to-back runs of
// the same method (the sweep's config × scenario inner loops) reuse it.
// The plan path skips this entirely — classifications ride in the plan.
void refresh_branch_kinds(detail::EngineWorkspace& ws, const Method& m) {
  if (ws.branch_method == &m && ws.branch_code_size == m.code.size() &&
      ws.branch_name == m.name) {
    return;
  }
  ws.branch_kinds = classify_branches(m);
  ws.branch_method = &m;
  ws.branch_code_size = m.code.size();
  ws.branch_name = m.name;
}

// The workspace plan cache: rebuild only when the method key changes or
// an external placement disagrees with the cached plan's slot lane.
const ExecPlan& plan_for(detail::EngineWorkspace& ws, const Method& m,
                         const DataflowGraph& graph,
                         const Placement* placement,
                         const MachineConfig& cfg) {
  if (ws.plan_valid && ws.plan_method == &m &&
      ws.plan_code_size == m.code.size() && ws.plan_name == m.name) {
    if (placement == nullptr) {
      if (!ws.plan_external) return ws.plan;
    } else if (ws.plan.fits() == placement->fits &&
               (!placement->fits ||
                (ws.plan.max_slot() == placement->max_slot &&
                 std::equal(placement->slot_of.begin(),
                            placement->slot_of.end(), ws.plan.slot())))) {
      return ws.plan;
    }
  }
  ws.plan_builder.build_into(ws.plan, m, graph, placement, cfg);
  ws.plan_valid = true;
  ws.plan_external = placement != nullptr;
  ws.plan_method = &m;
  ws.plan_code_size = m.code.size();
  ws.plan_name = m.name;
  return ws.plan;
}

// Instrumentation dispatch: the sweep hot path (no telemetry attached)
// runs the Run<false, kCal> instantiation with every hook compiled out.
RunMetrics execute_run(const MachineConfig& cfg, const EngineOptions& opt,
                       const Method& m, const DataflowGraph* graph,
                       const Placement* placement, const ExecPlan* plan,
                       BranchPredictor& predictor,
                       detail::EngineWorkspace& ws) {
  const bool instrumented = opt.metrics != nullptr || opt.tracer != nullptr ||
                            opt.flight != nullptr || opt.trace;
  const bool calendar = opt.scheduler != SchedulerKind::Heap;
  if (instrumented) {
    if (calendar) {
      return Run<true, true>(cfg, opt, m, graph, predictor, placement, plan,
                             ws)
          .execute();
    }
    return Run<true, false>(cfg, opt, m, graph, predictor, placement, plan,
                            ws)
        .execute();
  }
  if (calendar) {
    return Run<false, true>(cfg, opt, m, graph, predictor, placement, plan,
                            ws)
        .execute();
  }
  return Run<false, false>(cfg, opt, m, graph, predictor, placement, plan,
                           ws)
      .execute();
}

}  // namespace

Engine::Engine(MachineConfig config, EngineOptions options)
    : config_(std::move(config)),
      options_(options),
      ws_(std::make_unique<detail::EngineWorkspace>()) {
  // Resolve Auto (env lookups) once here, never on the per-run hot path.
  options_.scheduler = resolve_scheduler(options_.scheduler);
  options_.plan = resolve_plan_mode(options_.plan);
}

Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

RunMetrics Engine::run(const Method& m, const DataflowGraph& graph,
                       BranchPredictor& predictor) {
  if (options_.plan == PlanMode::On) {
    const ExecPlan& plan = plan_for(*ws_, m, graph, nullptr, config_);
    return execute_run(config_, options_, m, nullptr, nullptr, &plan,
                       predictor, *ws_);
  }
  refresh_branch_kinds(*ws_, m);
  return execute_run(config_, options_, m, &graph, nullptr, nullptr,
                     predictor, *ws_);
}

RunMetrics Engine::run(const Method& m, const DataflowGraph& graph,
                       const fabric::Placement& placement,
                       BranchPredictor& predictor) {
  if (options_.plan == PlanMode::On) {
    const ExecPlan& plan = plan_for(*ws_, m, graph, &placement, config_);
    return execute_run(config_, options_, m, nullptr, nullptr, &plan,
                       predictor, *ws_);
  }
  refresh_branch_kinds(*ws_, m);
  return execute_run(config_, options_, m, &graph, &placement, nullptr,
                     predictor, *ws_);
}

RunMetrics Engine::run(const Method& m, const ExecPlan& plan,
                       BranchPredictor& predictor) {
  return execute_run(config_, options_, m, nullptr, nullptr, &plan,
                     predictor, *ws_);
}

}  // namespace javaflow::sim
