#include "sim/multi_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <limits>

#include "net/message.hpp"
#include "sim/engine_internal.hpp"

namespace javaflow::sim {
namespace {

using bytecode::Group;
using detail::Event;
using detail::EventAfter;
using detail::EvKind;
using detail::kExecuting;
using detail::kFired;
using detail::kHeadReceived;
using detail::kInService;
using detail::kWaitTailFlush;
using detail::NodeRt;
using detail::Token;
using net::Command;

// `from_node` sentinel for send_serial: the owning residency's anchor
// (one physical hop below the residency's first row).
constexpr std::int32_t kFromAnchor = -1;

// Ring size before the first admission: one occupancy word.
constexpr std::int64_t kMinRing = 64;

}  // namespace

// The whole multi-tenant run state: the single engine's token-bundle
// semantics (sim/engine.cpp) with three structural changes, all driven
// by the Event::res lane:
//
//   * node lanes are global: residency r owns [r.base, r.base+r.count),
//     and reads its static plan lanes, held directly in its ResidentRt,
//     at the method-local id (g - r.base);
//   * physical indices are rebased: phys_g = plan.phys[local] +
//     r.phys_delta, and the bundle anchor sits at phys_delta - 1 so the
//     plan-frame injection arithmetic (hops = phys + 1) is preserved
//     under any row shift;
//   * transport is occupancy-tracked: serial links, mesh links, and the
//     four ring channels remember (owner, busy_until). A token whose
//     owner already holds the resource never waits — which is exactly
//     the single-method engine's (contention-free) timing — while a
//     cross-residency token queues behind the release and the wait is
//     charged to its residency.
//
// The calendar persists across advance() calls: a tick's bucket drains
// in one inner loop that returns at the first completion, so advance()
// can pause at a request arrival or hand back a completion mid-tick;
// the (tick, seq) order is the single engine's.
struct MultiEngine::Impl {
  struct ResidentRt {
    const bytecode::Method* method = nullptr;
    const ExecPlan* plan = nullptr;
    // The plan's static lanes, indexed by the method-local node id.
    const std::uint8_t* group = nullptr;
    const std::uint8_t* flags = nullptr;
    const std::uint8_t* branch_kinds = nullptr;
    const std::int32_t* pop_need = nullptr;
    const std::int32_t* local_reg = nullptr;
    const std::int32_t* target = nullptr;
    const std::int32_t* operand = nullptr;
    const std::int32_t* exec_cost = nullptr;
    const std::int32_t* edge_begin = nullptr;
    const PlanEdge* edges = nullptr;
    const PlanRouteLink* route_links = nullptr;
    BranchPredictor predictor{BranchPredictor::Scenario::BP1};
    std::int32_t base = 0;   // first global node lane
    std::int32_t count = 0;  // node lanes owned
    std::int32_t phys_delta = 0;
    std::int32_t slot_delta = 0;
    std::int64_t inject_tick = 0;
    bool done = false;
    bool completed = false;
    bool timed_out = false;
    std::int64_t end_tick = 0;
    // RunMetrics accumulators, mirroring the single engine's fields.
    std::int64_t fired = 0;
    std::int64_t mesh_msgs = 0;
    std::int64_t serial_msgs = 0;
    int active_exec = 0;
    std::int64_t last_change = 0;
    std::int64_t acc1 = 0;
    std::int64_t acc2 = 0;
    // Cross-residency contention charged to this residency.
    std::int64_t serial_wait = 0;
    std::int64_t mesh_wait = 0;
    std::int64_t ring_wait = 0;

    bool flag(std::int32_t l, std::uint8_t f) const {
      return (flags[l] & f) != 0;
    }
    Group group_of(std::int32_t l) const {
      return static_cast<Group>(group[l]);
    }
  };

  struct Occupancy {
    std::int32_t owner = -1;
    std::int64_t busy_until = 0;
  };

  MachineConfig cfg;
  MultiEngineOptions opt;
  std::int64_t k = 1;
  std::int64_t hop = 1;
  std::int32_t idus = 1;
  bool collapsed = false;

  std::vector<ResidentRt> residents;
  std::vector<ResidentOutcome> outcomes;
  std::deque<ResidentId> completed_queue;
  std::size_t running = 0;

  // ---- global node lanes (index = residency base + local node) ----
  std::vector<NodeRt> nodes;
  std::vector<std::uint8_t> state;
  std::vector<std::int32_t> pops;
  std::vector<std::int32_t> epoch;
  std::vector<std::int32_t> fwd;  // global target (base-rebased)
  std::vector<char> distinct;
  std::vector<std::uint16_t> res_of;
  // Global physical index per node, frozen at admission. Kept as a lane
  // (not derived from the plan) so events of an already-finished
  // residency — whose caller may have dropped the plan — never touch
  // plan memory on the drop path.
  std::vector<std::int32_t> phys_lane;

  // ---- shared fabric occupancy (index = global physical node) ----
  std::vector<char> exec_busy;
  std::vector<std::vector<std::int32_t>> pending_fire;
  // Serial chain: link_down[p] is the hop entering phys p from p-1
  // (forward network); link_up[p] the hop entering p from p+1 (reverse).
  std::vector<Occupancy> link_down;
  std::vector<Occupancy> link_up;
  // Mesh: one occupancy per (phys, obs::LinkDir), walked over the
  // plan's precomputed X-Y route spans.
  std::vector<Occupancy> mesh_link;
  // Ring: one channel per net::RingService.
  std::array<Occupancy, 4> ring{};

  // ---- calendar (persistent across advance() calls) ----
  //
  // Invariant: every bucket holds the events of one tick in
  // [cal_cur, cal_cur + ring_size) in seq order, and the overflow heap
  // holds only ticks at or past the window's end — every cursor move
  // and every ring growth migrates the spill the window now covers.
  std::vector<std::vector<Event>> buckets;
  std::vector<std::uint64_t> cal_words;
  std::vector<Event> overflow;
  std::vector<Token> flush_scratch;
  std::int64_t ring_size = 0;
  std::int64_t bucket_mask = 0;
  std::int64_t cal_cur = 0;
  std::size_t bucket_pos = 0;  // dispatched prefix of the cal_cur bucket
  std::int64_t live_events = 0;
  std::int64_t seq = 0;
  std::int64_t now = 0;

  // ---- fabric-level accounting ----
  int fab_active = 0;       // executing instructions, all residencies
  int res_exec_count = 0;   // residencies with >=1 executing instruction
  std::int64_t fab_last = 0;
  std::int64_t fab_acc1 = 0;
  std::int64_t fab_acc2 = 0;
  std::int64_t res_acc1 = 0;
  std::int64_t res_acc2 = 0;

  explicit Impl(MachineConfig config, MultiEngineOptions options)
      : cfg(std::move(config)),
        opt(options),
        k(cfg.serial_per_mesh),
        hop(cfg.collapsed() ? 0 : 1),
        idus(std::max(cfg.idus_per_node, 1)),
        collapsed(cfg.collapsed()) {
    grow_ring(kMinRing);
  }

  void ensure_phys(std::int32_t max_phys_global) {
    const auto want = static_cast<std::size_t>(max_phys_global + 2);
    if (exec_busy.size() < want) {
      exec_busy.resize(want, 0);
      pending_fire.resize(want);
      link_down.resize(want);
      link_up.resize(want);
      mesh_link.resize(want * 4);
    }
  }

  // ---- admission ----
  ResidentId admit(const bytecode::Method& m, const ExecPlan& plan,
                   std::int32_t phys_delta,
                   BranchPredictor::Scenario scenario,
                   std::int64_t start_tick) {
    if (residents.size() >= static_cast<std::size_t>(kMaxResidents) ||
        !plan.fits()) {
      return -1;
    }
    grow_ring(detail::calendar_buckets(cfg, plan.max_phys(), m.max_locals));
    const auto id = static_cast<ResidentId>(residents.size());
    ResidentRt r;
    r.method = &m;
    r.plan = &plan;
    r.base = static_cast<std::int32_t>(nodes.size());
    r.group = plan.group();
    r.flags = plan.flags();
    r.branch_kinds = plan.branch_kinds();
    r.pop_need = plan.pop_need();
    r.local_reg = plan.local_reg();
    r.target = plan.target();
    r.operand = plan.operand();
    r.exec_cost = plan.exec_cost_ticks();
    r.edge_begin = plan.edge_begin();
    r.edges = plan.edges();
    r.route_links = plan.route_links();
    r.predictor = BranchPredictor(scenario);
    r.count = plan.node_count();
    r.phys_delta = phys_delta;
    r.slot_delta = phys_delta * idus;
    r.inject_tick = std::max(start_tick, cal_cur);
    r.last_change = r.inject_tick;

    const auto nn = static_cast<std::size_t>(r.base + r.count);
    nodes.resize(nn);
    state.resize(nn, 0);
    pops.resize(nn, 0);
    epoch.resize(nn, 0);
    fwd.resize(nn);
    distinct.resize(nn, 0);
    res_of.resize(nn, static_cast<std::uint16_t>(id));
    phys_lane.resize(nn);
    for (std::int32_t i = 0; i < r.count; ++i) {
      fwd[static_cast<std::size_t>(r.base + i)] = r.base + i + 1;
      phys_lane[static_cast<std::size_t>(r.base + i)] =
          plan.phys()[i] + phys_delta;
    }
    ensure_phys(plan.max_phys() + phys_delta);

    residents.push_back(std::move(r));
    outcomes.emplace_back();
    outcomes.back().resident = id;
    outcomes.back().name = m.name;
    outcomes.back().admitted_tick = residents.back().inject_tick;
    ++running;

    inject_bundle(residents.back(), static_cast<std::uint16_t>(id));
    return id;
  }

  void inject_bundle(ResidentRt& r, std::uint16_t res) {
    const std::int64_t spacing = hop == 0 ? 0 : 1;
    std::int64_t idx = 0;
    now = r.inject_tick;
    send_serial(r, res, kFromAnchor, Token{Command::HeadToken, -1}, r.base,
                spacing * idx++);
    send_serial(r, res, kFromAnchor, Token{Command::MemoryToken, -1}, r.base,
                spacing * idx++);
    for (std::int32_t reg = 0; reg < r.method->max_locals; ++reg) {
      send_serial(r, res, kFromAnchor, Token{Command::RegisterToken, reg},
                  r.base, spacing * idx++);
    }
    send_serial(r, res, kFromAnchor, Token{Command::TailToken, -1}, r.base,
                spacing * idx++);
  }

  // ---- calendar ----
  [[gnu::always_inline]] inline void bucket_insert(const Event& ev) {
    const auto bi = static_cast<std::size_t>(ev.tick & bucket_mask);
    buckets[bi].push_back(ev);
    cal_words[bi >> 6] |= std::uint64_t{1} << (bi & 63);
  }

  [[gnu::always_inline]] inline void schedule(Event ev) {
    ev.seq = seq++;
    ++live_events;
    if (ev.tick < cal_cur + ring_size) [[likely]] {
      bucket_insert(ev);
    } else {
      spill(ev);
    }
  }

  // Slow paths, kept out of line so schedule() and move_cursor() stay
  // small enough to inline into every call site.
  [[gnu::noinline]] void spill(const Event& ev) {
    overflow.push_back(ev);
    std::push_heap(overflow.begin(), overflow.end(), EventAfter{});
  }

  [[gnu::noinline]] void migrate_overflow() {
    while (!overflow.empty() && overflow.front().tick < cal_cur + ring_size) {
      std::pop_heap(overflow.begin(), overflow.end(), EventAfter{});
      bucket_insert(overflow.back());
      overflow.pop_back();
    }
  }

  // Every cursor move pulls in the spill the window now covers, before
  // anything can be scheduled at those ticks — so an admission at a
  // paused tick lands behind older spilled events of the same tick.
  [[gnu::always_inline]] inline void move_cursor(std::int64_t tick) {
    cal_cur = tick;
    if (!overflow.empty()) [[unlikely]] migrate_overflow();
  }

  // Widens the ring to `want` buckets (a power of two). Each occupied
  // bucket holds one tick of the current window, in seq order, and moves
  // whole into that tick's new bucket (keeping bucket_pos valid); the
  // spill the wider window now covers migrates after it.
  void grow_ring(std::int64_t want) {
    if (want <= ring_size) return;
    std::vector<std::vector<Event>> old_buckets(
        static_cast<std::size_t>(want));
    std::vector<std::uint64_t> old_words(static_cast<std::size_t>(want >> 6),
                                         0);
    old_buckets.swap(buckets);
    old_words.swap(cal_words);
    ring_size = want;
    bucket_mask = want - 1;
    for (std::size_t w = 0; w < old_words.size(); ++w) {
      for (std::uint64_t bits = old_words[w]; bits != 0; bits &= bits - 1) {
        std::vector<Event>& b =
            old_buckets[(w << 6) |
                        static_cast<std::size_t>(std::countr_zero(bits))];
        const auto bi =
            static_cast<std::size_t>(b.front().tick & bucket_mask);
        buckets[bi] = std::move(b);
        cal_words[bi >> 6] |= std::uint64_t{1} << (bi & 63);
      }
    }
    migrate_overflow();
  }

  void clear_bucket(std::size_t bix) {
    buckets[bix].clear();
    cal_words[bix >> 6] &= ~(std::uint64_t{1} << (bix & 63));
  }

  std::int64_t next_bucket_tick() const {
    const auto mask = static_cast<std::uint64_t>(bucket_mask);
    const std::uint64_t start =
        (static_cast<std::uint64_t>(cal_cur) + 1) & mask;
    const auto nwords = static_cast<std::size_t>(ring_size >> 6);
    const auto w0 = static_cast<std::size_t>(start >> 6);
    std::uint64_t bits = cal_words[w0] & (~std::uint64_t{0} << (start & 63));
    if (bits != 0) {
      const std::uint64_t j =
          (static_cast<std::uint64_t>(w0) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      return cal_cur + 1 + static_cast<std::int64_t>((j - start) & mask);
    }
    for (std::size_t s = 1; s <= nwords; ++s) {
      const std::size_t w = (w0 + s) % nwords;
      bits = cal_words[w];
      if (w == w0) {
        const std::uint64_t low = start & 63;
        bits &= low != 0 ? (std::uint64_t{1} << low) - 1 : std::uint64_t{0};
      }
      if (bits != 0) {
        const std::uint64_t j =
            (static_cast<std::uint64_t>(w) << 6) +
            static_cast<std::uint64_t>(std::countr_zero(bits));
        return cal_cur + 1 + static_cast<std::int64_t>((j - start) & mask);
      }
    }
    return std::numeric_limits<std::int64_t>::max();
  }

  std::optional<ResidentId> advance(std::int64_t until) {
    while (true) {
      if (!completed_queue.empty()) {
        const ResidentId id = completed_queue.front();
        completed_queue.pop_front();
        return id;
      }
      if (live_events == 0) {
        if (running > 0) {
          // Drained with residencies still running: no token can ever
          // reach them again, so they end here, timed out.
          time_out_running();
          continue;
        }
        // Fully drained: whatever sits in the cursor's bucket is a
        // consumed prefix. Clear it and rewind bucket_pos before the
        // cursor jumps — otherwise an admission at the idle tick inserts
        // its bundle below the stale cursor and is never dispatched.
        clear_bucket(static_cast<std::size_t>(cal_cur & bucket_mask));
        bucket_pos = 0;
        if (until != kNoLimit && until > cal_cur) move_cursor(until);
        return std::nullopt;
      }
      if (cal_cur >= until) return std::nullopt;

      // Drain the cursor's tick; a completion returns mid-tick with the
      // cursor still here, so an admission it triggers starts this tick.
      const auto bix = static_cast<std::size_t>(cal_cur & bucket_mask);
      std::vector<Event>& bucket = buckets[bix];
      now = cal_cur;
      const std::size_t first = bucket_pos;
      while (bucket_pos < bucket.size()) {
        const Event ev = bucket[bucket_pos++];
        dispatch(ev);
        if (!completed_queue.empty()) [[unlikely]] break;
      }
      live_events -= static_cast<std::int64_t>(bucket_pos - first);
      if (!completed_queue.empty() || live_events == 0) continue;

      // Tick drained: jump to the next pending tick (occupancy-bitmap
      // scan vs. the overflow front).
      clear_bucket(bix);
      bucket_pos = 0;
      std::int64_t next = next_bucket_tick();
      if (!overflow.empty() && overflow.front().tick < next) {
        next = overflow.front().tick;
      }
      if (next >= until) {
        move_cursor(until);
        return std::nullopt;
      }
      if (next > opt.max_ticks) {
        timeout_all(next);
        continue;
      }
      move_cursor(next);
    }
  }

  void dispatch(const Event& ev) {
    ResidentRt& r = residents[ev.res];
    if (r.done) {
      // A finished residency's stale events are dropped — except that a
      // still-in-flight execution completion must free its Instruction
      // Execution Unit (shared with later co-residents) and close the
      // fabric-level overlap span it holds.
      if (ev.kind() == EvKind::ExecDone) {
        state[static_cast<std::size_t>(ev.node)] &=
            static_cast<std::uint8_t>(~kExecuting);
        exec_delta(r, -1);
        release_execution_unit(ev.node);
      }
      return;
    }
    switch (ev.kind()) {
      case EvKind::Serial:
        on_serial(r, ev.res, ev.node, Token{ev.cmd, ev.aux});
        break;
      case EvKind::Mesh:
        on_mesh(r, ev.res, ev.node, ev.aux);
        break;
      case EvKind::ExecDone: on_exec_done(r, ev.res, ev.node); break;
      case EvKind::ServiceDone: on_service_done(r, ev.res, ev.node); break;
    }
  }

  // ---- occupancy-tracked transport ----
  //
  // Each resource remembers (owner, busy_until). Same-owner passage is
  // free (single-method parity: a method's own tokens never queue
  // behind each other, exactly as in sim::Engine); a cross-residency
  // token starts when the resource frees and the delay is charged to
  // the waiting residency.
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

  // Serial-chain arrival tick from physical a to b (global indices;
  // a == phys_delta-1 is the residency's anchor). Collapsed configs
  // have zero serial transit, hence nothing to contend for.
  std::int64_t chain_arrival(ResidentRt& r, std::uint16_t res,
                             std::int32_t a, std::int32_t b) {
    if (hop == 0) return now;
    if (a == b) return now + hop;  // intra-node IDU chain hop
    std::int64_t t = now;
    std::int64_t wait = 0;
    if (a < b) {
      for (std::int32_t p = a + 1; p <= b; ++p) {
        t = occupy(link_down[static_cast<std::size_t>(p)], res, t, hop,
                   &wait);
      }
    } else {
      for (std::int32_t p = a - 1; p >= b; --p) {
        t = occupy(link_up[static_cast<std::size_t>(p)], res, t, hop,
                   &wait);
      }
    }
    r.serial_wait += wait;
    return t;
  }

  // Mesh arrival tick for one plan edge. The precomputed X-Y route is
  // walked link by link at one mesh cycle (k ticks) each; with no
  // contention the sum equals the plan's baked delivery_ticks (route
  // length == Manhattan distance), so single-residency timing is
  // bit-identical. Collapsed configs and self-edges (distance clamped
  // to 1, no links) keep the baked cost.
  std::int64_t mesh_arrival(ResidentRt& r, std::uint16_t res,
                            const PlanEdge& e) {
    if (collapsed || e.route_count == 0) return now + e.delivery_ticks;
    const PlanRouteLink* link = r.route_links + e.route_begin;
    std::int64_t t = now;
    std::int64_t wait = 0;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      const auto li =
          static_cast<std::size_t>(link->src_phys + r.phys_delta) * 4 +
          link->dir;
      t = occupy(mesh_link[li], res, t, k, &wait);
    }
    r.mesh_wait += wait;
    return t;
  }

  // Ring-service completion tick. All four channels are fabric-global —
  // the one genuinely shared resource even between row-aligned
  // residencies. `blocking` distinguishes a waiting requester (MemRead,
  // GPP calls) from a posted MemoryWrite, which reserves the channel
  // but never stalls its node.
  std::int64_t ring_done(ResidentRt& r, std::uint16_t res,
                         net::RingService svc, std::int64_t svc_ticks,
                         bool blocking) {
    Occupancy& o = ring[static_cast<std::size_t>(svc)];
    std::int64_t wait = 0;
    const std::int64_t done = occupy(o, res, now, svc_ticks, &wait);
    if (blocking) r.ring_wait += wait;
    return done;
  }

  // ---- sends ----
  void send_serial(ResidentRt& r, std::uint16_t res, std::int32_t from_g,
                   Token tok, std::int32_t to_g, std::int64_t extra = 0) {
    if (to_g < r.base || to_g >= r.base + r.count) {
      return;  // token falls off the residency's chain span
    }
    ++r.serial_msgs;
    const std::int32_t a = from_g == kFromAnchor
                               ? r.phys_delta - 1
                               : phys_lane[static_cast<std::size_t>(from_g)];
    const std::int32_t b = phys_lane[static_cast<std::size_t>(to_g)];
    Event ev;
    ev.set(EvKind::Serial);
    ev.node = to_g;
    ev.res = res;
    ev.cmd = tok.cmd;
    ev.aux = tok.reg;
    ev.tick = chain_arrival(r, res, a, b) + extra;
    schedule(ev);
  }

  void forward_token(ResidentRt& r, std::uint16_t res, std::int32_t g,
                     Token tok) {
    send_serial(r, res, g, tok, fwd[static_cast<std::size_t>(g)]);
  }

  void send_mesh(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    const std::int32_t l = g - r.base;
    const PlanEdge* e = r.edges + r.edge_begin[l];
    const PlanEdge* const end = r.edges + r.edge_begin[l + 1];
    for (; e != end; ++e) {
      ++r.mesh_msgs;
      const std::int32_t consumer_g = r.base + e->consumer;
      Event ev;
      ev.set(EvKind::Mesh, e->side);
      ev.node = consumer_g;
      ev.res = res;
      ev.prod = g;
      ev.aux = epoch[static_cast<std::size_t>(consumer_g)];
      ev.tick = mesh_arrival(r, res, *e);
      schedule(ev);
    }
  }

  // ---- serial handlers (ported from sim/engine.cpp on_serial) ----
  void on_serial(ResidentRt& r, std::uint16_t res, std::int32_t g,
                 Token tok) {
    const auto u = static_cast<std::size_t>(g);
    const std::int32_t l = g - r.base;
    NodeRt& n = nodes[u];
    const std::uint8_t st = state[u];
    const bool buffers = r.flag(l, kPlanBuffers);
    const bool hold =
        buffers && (!(st & kFired) || (st & kWaitTailFlush) != 0);

    switch (tok.cmd) {
      case Command::HeadToken:
        state[u] |= kHeadReceived;
        if (hold) {
          n.buffered.push_back(tok);
          try_fire(r, res, g);
        } else {
          try_fire(r, res, g);
          forward_token(r, res, g, tok);
        }
        return;

      case Command::MemoryToken:
        if (hold) {
          n.buffered.push_back(tok);
          return;
        }
        if (r.flag(l, kPlanOrdered) && !(state[u] & kFired)) {
          n.memory_held = true;
          n.held_memory = tok;
          try_fire(r, res, g);
          return;
        }
        forward_token(r, res, g, tok);
        return;

      case Command::RegisterToken: {
        if (hold) {
          n.buffered.push_back(tok);
          return;
        }
        const Group grp = r.group_of(l);
        const std::int32_t lreg = r.local_reg[l];
        if ((grp == Group::LocalRead || grp == Group::LocalInc) &&
            lreg == tok.reg && !(state[u] & kFired) && !n.reg_held) {
          n.reg_held = true;
          n.held_reg = tok;
          try_fire(r, res, g);
          return;
        }
        if (grp == Group::LocalWrite && lreg == tok.reg) {
          if (!(state[u] & kFired)) {
            n.write_absorbed = true;
          } else if (n.kill_next_register) {
            n.kill_next_register = false;
          } else {
            forward_token(r, res, g, tok);
          }
          return;
        }
        forward_token(r, res, g, tok);
        return;
      }

      case Command::TailToken:
        if (buffers) {
          if (!(state[u] & kFired)) {
            n.buffered.push_back(tok);
            n.tail_present = true;
            try_fire(r, res, g);
            return;
          }
          if (state[u] & kWaitTailFlush) {
            n.buffered.push_back(tok);
            flush_up(r, res, g);
            return;
          }
          forward_token(r, res, g, tok);
          return;
        }
        if (state[u] & kFired) {
          forward_token(r, res, g, tok);
        } else {
          n.tail_held = true;
          n.held_tail = tok;
        }
        return;

      default:
        forward_token(r, res, g, tok);
        return;
    }
  }

  void on_mesh(ResidentRt& r, std::uint16_t res, std::int32_t g,
               std::int32_t ep) {
    const auto u = static_cast<std::size_t>(g);
    if (epoch[u] != ep) return;  // stale (previous loop iteration)
    ++pops[u];
    try_fire(r, res, g);
  }

  // ---- firing ----
  bool fire_ready(const ResidentRt& r, std::int32_t g) const {
    const auto u = static_cast<std::size_t>(g);
    if (state[u] != kHeadReceived) return false;
    const NodeRt& n = nodes[u];
    const std::int32_t l = g - r.base;
    const std::int32_t need = r.pop_need[l];
    switch (r.group_of(l)) {
      case Group::LocalRead:
      case Group::LocalInc:
        return n.reg_held;
      case Group::MemRead:
      case Group::MemWrite:
        return pops[u] >= need && n.memory_held;
      case Group::Return:
        return pops[u] >= need && n.tail_present;
      case Group::ControlFlow:
        if (r.flag(l, kPlanBackwardGoto)) {
          return n.tail_present;  // backward GoTo fires on TAIL (§6.3)
        }
        return pops[u] >= need;
      default:
        return pops[u] >= need;
    }
  }

  void try_fire(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    if (!fire_ready(r, g)) return;
    const auto u = static_cast<std::size_t>(g);
    const auto pn = static_cast<std::size_t>(phys_lane[u]);
    if (idus > 1 && exec_busy[pn]) {
      pending_fire[pn].push_back(g);
      return;
    }
    exec_busy[pn] = 1;
    state[u] |= kExecuting;
    exec_delta(r, +1);
    Event ev;
    ev.set(EvKind::ExecDone);
    ev.node = g;
    ev.res = res;
    ev.tick = now + r.exec_cost[g - r.base];
    schedule(ev);
  }

  void release_execution_unit(std::int32_t g) {
    const auto pn =
        static_cast<std::size_t>(phys_lane[static_cast<std::size_t>(g)]);
    exec_busy[pn] = 0;
    if (idus <= 1) return;
    auto& pending = pending_fire[pn];
    while (!pending.empty()) {
      const std::int32_t next = pending.front();
      pending.erase(pending.begin());
      const std::uint16_t nres = res_of[static_cast<std::size_t>(next)];
      if (residents[nres].done) continue;  // stale: owner finished
      try_fire(residents[nres], nres, next);
      if (exec_busy[pn]) break;
    }
  }

  void mark_fired(ResidentRt& r, std::int32_t g) {
    state[static_cast<std::size_t>(g)] |= kFired;
    ++r.fired;
    distinct[static_cast<std::size_t>(g)] = 1;
  }

  void post_fire_releases(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    NodeRt& n = nodes[static_cast<std::size_t>(g)];
    const std::int32_t l = g - r.base;
    const Group grp = r.group_of(l);
    if (grp == Group::LocalRead || grp == Group::LocalInc) {
      if (n.reg_held) {
        n.reg_held = false;
        forward_token(r, res, g, n.held_reg);
      }
    }
    if (grp == Group::LocalWrite) {
      forward_token(r, res, g, Token{Command::RegisterToken, r.local_reg[l]});
      if (!n.write_absorbed) n.kill_next_register = true;
    }
    if (n.memory_held) {
      n.memory_held = false;
      forward_token(r, res, g, n.held_memory);
    }
    if (n.tail_held) {
      n.tail_held = false;
      forward_token(r, res, g, n.held_tail);
    }
  }

  // Books a ring service for node g and schedules its ServiceDone.
  void start_service(ResidentRt& r, std::uint16_t res, std::int32_t g,
                     net::RingService svc, std::int64_t svc_ticks) {
    state[static_cast<std::size_t>(g)] |= kInService;
    Event ev;
    ev.set(EvKind::ServiceDone);
    ev.node = g;
    ev.res = res;
    ev.tick = ring_done(r, res, svc, svc_ticks, /*blocking=*/true);
    schedule(ev);
  }

  void on_exec_done(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes[u];
    state[u] &= static_cast<std::uint8_t>(~kExecuting);
    exec_delta(r, -1);
    release_execution_unit(g);
    const std::int32_t l = g - r.base;
    const Group grp = r.group_of(l);

    if (grp == Group::ControlFlow || r.flag(l, kPlanSwitch)) {
      resolve_control(r, res, g);
      return;
    }
    if (grp == Group::Return) {
      mark_fired(r, g);
      complete_resident(r, res);
      return;
    }
    if (grp == Group::Call || grp == Group::Special) {
      start_service(r, res, g, net::RingService::GppService,
                    k * cfg.ring.gpp_service);
      return;
    }
    if (grp == Group::MemRead) {
      if (n.memory_held) {
        n.memory_held = false;
        forward_token(r, res, g, n.held_memory);
      }
      start_service(r, res, g, net::RingService::MemoryRead,
                    k * cfg.ring.memory_read);
      return;
    }
    if (grp == Group::MemWrite) {
      // Posted: the channel is reserved but the node never waits.
      ring_done(r, res, net::RingService::MemoryWrite,
                k * cfg.ring.memory_write, /*blocking=*/false);
      mark_fired(r, g);
      post_fire_releases(r, res, g);
      return;
    }
    mark_fired(r, g);
    send_mesh(r, res, g);
    post_fire_releases(r, res, g);
  }

  void on_service_done(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    state[static_cast<std::size_t>(g)] &=
        static_cast<std::uint8_t>(~kInService);
    mark_fired(r, g);
    send_mesh(r, res, g);
    post_fire_releases(r, res, g);
  }

  void resolve_control(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    NodeRt& n = nodes[static_cast<std::size_t>(g)];
    // Predictor sites are keyed by the method-local node id, so a shared
    // plan's residencies replay the same decision streams as a
    // single-method run (determinism and N=1 parity both need this).
    const std::int32_t l = g - r.base;
    std::int32_t target;  // global node index
    if (r.flag(l, kPlanGoto)) {
      target = r.base + r.target[l];
    } else if (r.flag(l, kPlanSwitch)) {
      const bytecode::SwitchTable& table =
          r.method->switches[static_cast<std::size_t>(r.operand[l])];
      const auto arms = static_cast<std::int32_t>(table.targets.size()) + 1;
      const std::int32_t pick = r.predictor.decide_switch(l, arms);
      target = r.base +
               (pick < static_cast<std::int32_t>(table.targets.size())
                    ? table.targets[static_cast<std::size_t>(pick)]
                    : table.default_target);
    } else {
      const auto kind = static_cast<BranchKind>(r.branch_kinds[l]);
      const bool taken = r.predictor.decide(l, kind);
      target = taken ? r.base + r.target[l] : g + 1;
    }

    mark_fired(r, g);
    if (target > g) {
      fwd[static_cast<std::size_t>(g)] = target;
      std::int64_t idx = 0;
      for (std::size_t bi = 0; bi < n.buffered.size(); ++bi) {
        send_serial(r, res, g, n.buffered[bi], target,
                    hop == 0 ? 0 : idx++);
      }
      n.buffered.clear();
      return;
    }
    state[static_cast<std::size_t>(g)] |= kWaitTailFlush;
    n.decided_target = target;
    if (n.tail_present) flush_up(r, res, g);
  }

  void reset_node(std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    state[u] = 0;
    pops[u] = 0;
    ++epoch[u];
    fwd[u] = g + 1;
    nodes[u].reset_cold();
  }

  void flush_up(ResidentRt& r, std::uint16_t res, std::int32_t g) {
    NodeRt& n = nodes[static_cast<std::size_t>(g)];
    const std::int32_t target = n.decided_target;
    flush_scratch.clear();
    flush_scratch.swap(n.buffered);
    for (std::int32_t i = target; i <= g; ++i) reset_node(i);
    std::int64_t idx = 0;
    for (const Token& tok : flush_scratch) {
      send_serial(r, res, g, tok, target, hop == 0 ? 0 : idx++);
    }
  }

  // ---- overlap accounting ----
  //
  // Per-residency acc1/acc2 mirror the single engine exactly (so a lone
  // residency's RunMetrics match bit for bit); the fabric-level pair
  // and the distinct-residency pair integrate the same spans over the
  // global counters.
  void flush_fabric_accounting() {
    const std::int64_t span = now - fab_last;
    if (span > 0) {
      if (fab_active >= 1) fab_acc1 += span;
      if (fab_active >= 2) fab_acc2 += span;
      if (res_exec_count >= 1) res_acc1 += span;
      if (res_exec_count >= 2) res_acc2 += span;
    }
    fab_last = now;
  }

  void exec_delta(ResidentRt& r, int delta) {
    flush_fabric_accounting();
    if (!r.done) {
      if (r.active_exec >= 1) r.acc1 += now - r.last_change;
      if (r.active_exec >= 2) r.acc2 += now - r.last_change;
      r.last_change = now;
    }
    const int before = r.active_exec;
    r.active_exec += delta;
    fab_active += delta;
    if (before == 0 && r.active_exec > 0) ++res_exec_count;
    if (before > 0 && r.active_exec == 0) --res_exec_count;
  }

  // ---- completion ----
  void complete_resident(ResidentRt& r, std::uint16_t res) {
    r.completed = true;
    r.end_tick = now;
    finalize_resident(r, res);
    completed_queue.push_back(static_cast<ResidentId>(res));
  }

  void finalize_resident(ResidentRt& r, std::uint16_t res) {
    // Freeze this residency's overlap accounting at the current tick
    // (matching the single engine's end-of-run flush), then fill the
    // outcome. In-flight executions keep their IEUs busy until their
    // ExecDone events drain; those spans still count at fabric level.
    if (r.active_exec >= 1) r.acc1 += now - r.last_change;
    if (r.active_exec >= 2) r.acc2 += now - r.last_change;
    r.last_change = now;
    r.done = true;
    --running;

    RunMetrics mm;
    mm.fits = true;
    mm.completed = r.completed;
    mm.timed_out = r.timed_out;
    mm.exception = false;
    mm.static_size = static_cast<std::int32_t>(r.method->code.size());
    mm.max_slot = r.plan->max_slot() + r.slot_delta;
    mm.ticks = (r.completed ? r.end_tick : now) - r.inject_tick;
    mm.mesh_cycles = std::max<std::int64_t>(1, (mm.ticks + k - 1) / k);
    mm.instructions_fired = r.fired;
    mm.distinct_fired = static_cast<std::int32_t>(
        std::count(distinct.begin() + r.base,
                   distinct.begin() + r.base + r.count, 1));
    mm.mesh_messages = r.mesh_msgs;
    mm.serial_messages = r.serial_msgs;
    mm.ticks_exec_1plus = r.acc1;
    mm.ticks_exec_2plus = r.acc2;

    ResidentOutcome& out = outcomes[res];
    out.metrics = mm;
    out.completed_tick = r.completed ? r.end_tick : -1;
    out.serial_wait_ticks = r.serial_wait;
    out.mesh_wait_ticks = r.mesh_wait;
    out.ring_wait_ticks = r.ring_wait;
  }

  // Finalizes every still-running residency as timed out at `now` and
  // queues it for advance() to hand back.
  void time_out_running() {
    for (std::size_t i = 0; i < residents.size(); ++i) {
      ResidentRt& r = residents[i];
      if (r.done) continue;
      r.timed_out = true;
      finalize_resident(r, static_cast<std::uint16_t>(i));
      completed_queue.push_back(static_cast<ResidentId>(i));
    }
  }

  void timeout_all(std::int64_t over_tick) {
    now = over_tick;
    cal_cur = over_tick;
    time_out_running();
    // Drop every undrained event: all owners are finished.
    for (std::size_t w = 0; w < cal_words.size(); ++w) {
      std::uint64_t bits = cal_words[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        buckets[(w << 6) | static_cast<std::size_t>(bit)].clear();
      }
      cal_words[w] = 0;
    }
    overflow.clear();
    live_events = 0;
    bucket_pos = 0;
  }

  MultiRunMetrics finish() {
    for (std::size_t i = 0; i < residents.size(); ++i) {
      if (!residents[i].done) {
        finalize_resident(residents[i], static_cast<std::uint16_t>(i));
      }
    }
    flush_fabric_accounting();
    MultiRunMetrics agg;
    agg.residents = outcomes;
    agg.fabric_ticks = now;
    agg.ticks_exec_1plus = fab_acc1;
    agg.ticks_exec_2plus = fab_acc2;
    agg.ticks_res_1plus = res_acc1;
    agg.ticks_res_2plus = res_acc2;
    for (const ResidentRt& r : residents) {
      agg.serial_wait_ticks += r.serial_wait;
      agg.mesh_wait_ticks += r.mesh_wait;
      agg.ring_wait_ticks += r.ring_wait;
    }
    return agg;
  }
};

MultiEngine::MultiEngine(MachineConfig config, MultiEngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(config), options)) {}
MultiEngine::MultiEngine(MultiEngine&&) noexcept = default;
MultiEngine& MultiEngine::operator=(MultiEngine&&) noexcept = default;
MultiEngine::~MultiEngine() = default;

ResidentId MultiEngine::admit(const bytecode::Method& m, const ExecPlan& plan,
                              std::int32_t phys_delta,
                              BranchPredictor::Scenario scenario,
                              std::int64_t start_tick) {
  return impl_->admit(m, plan, phys_delta, scenario, start_tick);
}

std::optional<ResidentId> MultiEngine::advance(std::int64_t until) {
  return impl_->advance(until);
}

bool MultiEngine::idle() const noexcept { return impl_->live_events == 0; }

std::int64_t MultiEngine::now() const noexcept { return impl_->cal_cur; }

std::size_t MultiEngine::resident_count() const noexcept {
  return impl_->residents.size();
}

std::size_t MultiEngine::running_count() const noexcept {
  return impl_->running;
}

const ResidentOutcome* MultiEngine::outcome(ResidentId r) const noexcept {
  if (r < 0 || static_cast<std::size_t>(r) >= impl_->residents.size() ||
      !impl_->residents[static_cast<std::size_t>(r)].done) {
    return nullptr;
  }
  return &impl_->outcomes[static_cast<std::size_t>(r)];
}

MultiRunMetrics MultiEngine::finish() { return impl_->finish(); }

const MachineConfig& MultiEngine::config() const noexcept {
  return impl_->cfg;
}

}  // namespace javaflow::sim
