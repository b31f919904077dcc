#include "analysis/model_check.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>

namespace javaflow::analysis {
namespace {

using bytecode::Group;
using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;
using fabric::Edge;

bool is_switch(Op op) {
  return op == Op::tableswitch || op == Op::lookupswitch;
}

bool buffers_tokens(const Instruction& inst) {
  const Group g = inst.group();
  return g == Group::ControlFlow || g == Group::Return || is_switch(inst.op);
}

// Fixed-width bitset over linear addresses.
struct Bits {
  std::vector<std::uint64_t> w;
  explicit Bits(std::size_t n) : w((n + 63) / 64, 0) {}
  bool test(std::size_t i) const { return (w[i / 64] >> (i % 64)) & 1u; }
  void set(std::size_t i) { w[i / 64] |= std::uint64_t{1} << (i % 64); }
  void clear(std::size_t i) { w[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
  bool operator==(const Bits&) const = default;
};

struct State {
  std::int32_t holder = -1;
  Bits fired;
  Bits visited;
  std::string trace;  // arm decisions taken to reach this state
};

// Static per-method facts the exploration consults.
struct Model {
  const Method& m;
  std::size_t n;
  // Per consumer and side (side-1 indexed): forward producers.
  std::vector<std::vector<std::vector<std::int32_t>>> forward;
  // Per consumer: back-edge producers (token-ordering dependencies —
  // the mesh never delivers these values before the producer's prior
  // firing, so the consumer's wait is satisfiable only afterwards).
  std::vector<std::vector<std::int32_t>> back_deps;
  std::vector<std::int32_t> reg;  // local register touched, -1 otherwise
  // reach_top[h]: the lowest linear address the bundle can ever occupy
  // again once it holds at `h` — the fixpoint of chasing backward
  // control-transfer arms whose source is still reachable. Nodes below
  // it are frozen: never re-visited, never flushed.
  std::vector<std::int32_t> reach_top;
  // Fixed slot numbering for the operand sides, used by the canonical
  // state key: side_at[c] .. side_at[c] + pop(c) - 1 are node c's sides.
  std::vector<std::int32_t> side_at;
  std::int32_t total_sides = 0;

  Model(const Method& method, const fabric::DataflowGraph& graph)
      : m(method), n(method.code.size()) {
    forward.resize(n);
    back_deps.resize(n);
    reg.resize(n);
    side_at.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      forward[v].resize(m.code[v].pop);
      reg[v] = bytecode::local_register(m.code[v]);
      side_at[v] = total_sides;
      total_sides += m.code[v].pop;
    }
    for (const Edge& e : graph.edges) {
      const auto c = static_cast<std::size_t>(e.consumer);
      if (c >= n) continue;
      if (e.back) {
        back_deps[c].push_back(e.producer);
      } else if (e.side >= 1 && e.side <= m.code[c].pop) {
        forward[c][e.side - 1].push_back(e.producer);
      }
    }

    // Backward control-transfer arms (branch targets, switch arms, and
    // the implicit goto replay) feed the reach_top fixpoint.
    std::vector<std::pair<std::int32_t, std::int32_t>> back_arms;
    for (std::size_t v = 0; v < n; ++v) {
      const Instruction& inst = m.code[v];
      const auto src = static_cast<std::int32_t>(v);
      if (is_switch(inst.op)) {
        const auto& table = m.switches[static_cast<std::size_t>(inst.operand)];
        for (const std::int32_t t : table.targets) {
          if (t <= src) back_arms.emplace_back(src, t);
        }
        if (table.default_target <= src) {
          back_arms.emplace_back(src, table.default_target);
        }
      } else if (inst.group() == Group::ControlFlow && inst.target <= src) {
        back_arms.emplace_back(src, inst.target);
      }
    }
    reach_top.resize(n);
    for (std::size_t h = 0; h < n; ++h) {
      std::int32_t r = static_cast<std::int32_t>(h);
      bool changed = true;
      while (changed) {
        changed = false;
        for (const auto& [src, tgt] : back_arms) {
          if (src >= r && tgt < r) {
            r = tgt;
            changed = true;
          }
        }
      }
      reach_top[h] = r;
    }
  }

  // Serial-token availability, derived from chain order (§6.3): a token
  // reaches `v` once every unfired node above it that holds this token
  // kind has fired.
  bool reg_available(std::int32_t v, std::int32_t r, const State& s) const {
    for (std::int32_t w = 0; w < v; ++w) {
      const auto u = static_cast<std::size_t>(w);
      if (!s.visited.test(u) || s.fired.test(u)) continue;
      if (reg[u] == r) return false;  // unfired reader/writer holds it
    }
    return true;
  }
  bool memory_available(std::int32_t v, const State& s) const {
    for (std::int32_t w = 0; w < v; ++w) {
      const auto u = static_cast<std::size_t>(w);
      if (!s.visited.test(u) || s.fired.test(u)) continue;
      const Group g = m.code[u].group();
      if (g == Group::MemRead || g == Group::MemWrite) return false;
    }
    return true;
  }
  // TAIL reaches the holder only after every other visited node fired
  // (any unfired non-buffering node holds TAIL until it fires).
  bool tail_available(const State& s) const {
    for (std::size_t u = 0; u < n; ++u) {
      if (s.visited.test(u) && !s.fired.test(u) &&
          static_cast<std::int32_t>(u) != s.holder) {
        return false;
      }
    }
    return true;
  }

  // Firing conditions shared by every node class: operand sides served
  // by fired forward producers, token-ordering back-dependencies served
  // by their producers' prior firing.
  bool operands_ready(std::int32_t v, const State& s) const {
    const auto u = static_cast<std::size_t>(v);
    for (const auto& side : forward[u]) {
      bool ok = false;
      for (std::int32_t p : side) {
        if (s.fired.test(static_cast<std::size_t>(p))) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    for (std::int32_t p : back_deps[u]) {
      if (!s.fired.test(static_cast<std::size_t>(p))) return false;
    }
    return true;
  }

  bool can_fire(std::int32_t v, const State& s) const {
    if (!operands_ready(v, s)) return false;
    const Group g = m.code[static_cast<std::size_t>(v)].group();
    if (g == Group::LocalRead || g == Group::LocalInc) {
      return reg_available(v, reg[static_cast<std::size_t>(v)], s);
    }
    if (g == Group::MemRead || g == Group::MemWrite) {
      return memory_available(v, s);
    }
    return true;  // LocalWrite absorbs without waiting; others need none
  }
};

// Maximal-progress closure: fire every non-holder node that can. Exact
// for stuck-state detection — within an epoch firing is monotone, so
// the order of closure steps cannot hide a deadlock.
void closure(const Model& md, State& s) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t u = 0; u < md.n; ++u) {
      if (!s.visited.test(u) || s.fired.test(u)) continue;
      const auto v = static_cast<std::int32_t>(u);
      if (v == s.holder) continue;
      if (md.can_fire(v, s)) {
        s.fired.set(u);
        changed = true;
      }
    }
  }
}

// Walks the bundle down the chain from `from`, marking visited nodes,
// until a buffering node takes hold. Returns false if the bundle runs
// off the chain (cannot happen for verified methods).
bool advance(const Model& md, State& s, std::int32_t from) {
  for (std::int32_t v = from; static_cast<std::size_t>(v) < md.n; ++v) {
    s.visited.set(static_cast<std::size_t>(v));
    if (buffers_tokens(md.m.code[static_cast<std::size_t>(v)])) {
      s.holder = v;
      return true;
    }
  }
  return false;
}

// Canonical state key. Below reach_top[holder] the bundle never returns,
// so for those frozen nodes the future can observe only (a) whether the
// node is stuck (visited but unable to fire yet — it still blocks TAIL
// and token availability, and may fire later off a back-dependency), and
// (b) which not-yet-settled operand sides its firings have already
// served. Projecting the dead done-vs-unvisited distinction onto those
// observables merges the exponentially many branch-arm histories of
// loop-free regions into one abstract state; states with equal keys are
// bisimilar, so memoizing on the key is exact.
std::string encode(const Model& md, const State& s) {
  const std::int32_t top = md.reach_top[static_cast<std::size_t>(s.holder)];
  Bits live_visited(md.n);
  Bits live_fired(md.n);
  Bits served(static_cast<std::size_t>(md.total_sides) + md.n);
  for (std::size_t u = 0; u < md.n; ++u) {
    const bool frozen = static_cast<std::int32_t>(u) < top;
    const bool fired = s.fired.test(u);
    if (s.visited.test(u) && (!frozen || !fired)) live_visited.set(u);
    if (fired && !frozen) live_fired.set(u);
    // Frozen-producer serving state, per operand side; one extra bit per
    // node for the all-frozen-back-dependencies-fired conjunction.
    // Settled consumers (fired and frozen) can never pop again, and
    // unvisited frozen consumers can never be visited (every reachable
    // arm target stays at or above reach_top), hence never fire either.
    // Both get their bits forced to zero rather than leaking dead
    // branch-arm history; only frozen *stuck* nodes — which may still
    // fire off a back-dependency — keep their serving state.
    if (frozen && (fired || !s.visited.test(u))) continue;
    const auto& sides = md.forward[u];
    for (std::size_t k = 0; k < sides.size(); ++k) {
      for (const std::int32_t p : sides[k]) {
        if (p < top && s.fired.test(static_cast<std::size_t>(p))) {
          served.set(static_cast<std::size_t>(md.side_at[u]) + k);
          break;
        }
      }
    }
    bool all_frozen_deps = true;
    for (const std::int32_t p : md.back_deps[u]) {
      if (p < top && !s.fired.test(static_cast<std::size_t>(p))) {
        all_frozen_deps = false;
        break;
      }
    }
    if (all_frozen_deps) {
      served.set(static_cast<std::size_t>(md.total_sides) + u);
    }
  }
  std::string key;
  key.reserve(4 + 8 * (live_fired.w.size() + live_visited.w.size() +
                       served.w.size()));
  key.append(reinterpret_cast<const char*>(&s.holder), sizeof(s.holder));
  key.append(reinterpret_cast<const char*>(live_fired.w.data()),
             live_fired.w.size() * 8);
  key.append(reinterpret_cast<const char*>(live_visited.w.data()),
             live_visited.w.size() * 8);
  key.append(reinterpret_cast<const char*>(served.w.data()),
             served.w.size() * 8);
  return key;
}

void note_arm(State& s, std::int32_t from, std::int32_t to, bool backward) {
  if (s.trace.size() > 160) return;  // witness stays readable
  std::ostringstream os;
  os << ' ' << from << "->" << to;
  if (backward) os << "(back)";
  s.trace += os.str();
}

ModelCheckResult explore(const Model& md, const ModelCheckOptions& options) {
  ModelCheckResult result;
  const std::size_t n = md.n;

  State init{-1, Bits(n), Bits(n), {}};
  if (n == 0 || !advance(md, init, 0)) {
    result.verdict = ModelVerdict::Deadlock;
    result.witness = "token bundle runs off the chain";
    return result;
  }
  closure(md, init);

  std::unordered_set<std::string> seen;
  std::vector<State> stack;
  seen.insert(encode(md, init));
  stack.push_back(std::move(init));

  auto stuck = [&](const State& s, const char* why) {
    result.verdict = ModelVerdict::Deadlock;
    result.deadlock_node = s.holder;
    result.witness = why + (s.trace.empty() ? "" : " via" + s.trace);
  };

  std::vector<std::int32_t> arms;
  while (!stack.empty()) {
    if (result.states_explored >= options.max_states) {
      result.verdict = ModelVerdict::Inconclusive;
      return result;
    }
    State s = std::move(stack.back());
    stack.pop_back();
    ++result.states_explored;

    const auto hu = static_cast<std::size_t>(s.holder);
    const Instruction& inst = md.m.code[hu];
    const Group g = inst.group();

    if (!md.operands_ready(s.holder, s)) {
      stuck(s, "holder starves: an operand side can never be served");
      return result;
    }

    if (g == Group::Return) {
      if (!md.tail_available(s)) {
        stuck(s, "Return waits for TAIL held by a node that cannot fire");
        return result;
      }
      continue;  // Done — this path completes
    }

    // Backward goto fires only once TAIL arrives (Engine::fire_ready).
    const bool unconditional = inst.op == Op::goto_ || inst.op == Op::goto_w;
    if (unconditional && inst.target <= s.holder && !md.tail_available(s)) {
      stuck(s, "backward goto waits for TAIL held by a stuck node");
      return result;
    }

    arms.clear();
    if (is_switch(inst.op)) {
      const auto& table =
          md.m.switches[static_cast<std::size_t>(inst.operand)];
      arms.insert(arms.end(), table.targets.begin(), table.targets.end());
      arms.push_back(table.default_target);
    } else {
      arms.push_back(inst.target);
      if (!unconditional) arms.push_back(s.holder + 1);
    }
    std::sort(arms.begin(), arms.end());
    arms.erase(std::unique(arms.begin(), arms.end()), arms.end());

    for (std::int32_t t : arms) {
      if (t < 0 || static_cast<std::size_t>(t) >= n) continue;
      State next = s;
      next.fired.set(hu);
      const bool backward = t <= s.holder;
      note_arm(next, s.holder, t, backward);
      if (backward) {
        // The flush waits for TAIL; every other visited node must be
        // able to fire first, else the loop can never replay.
        closure(md, next);
        bool ok = true;
        for (std::size_t u = 0; u < n; ++u) {
          if (next.visited.test(u) && !next.fired.test(u)) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          next.holder = s.holder;
          stuck(next, "backward flush waits for TAIL held by a stuck node");
          return result;
        }
        // flush_up resets [t .. holder]: state and epoch cleared, the
        // bundle replays from the target.
        for (std::int32_t u = t; u <= s.holder; ++u) {
          next.fired.clear(static_cast<std::size_t>(u));
          next.visited.clear(static_cast<std::size_t>(u));
        }
      }
      if (!advance(md, next, t)) {
        next.holder = -1;
        result.verdict = ModelVerdict::Deadlock;
        result.witness =
            "token bundle runs off the chain" +
            (next.trace.empty() ? "" : " via" + next.trace);
        return result;
      }
      closure(md, next);
      if (seen.insert(encode(md, next)).second) {
        stack.push_back(std::move(next));
      }
    }
  }

  result.verdict = ModelVerdict::Proved;
  return result;
}

}  // namespace

std::string_view model_verdict_name(ModelVerdict v) noexcept {
  switch (v) {
    case ModelVerdict::Proved: return "proved";
    case ModelVerdict::Deadlock: return "deadlock";
    case ModelVerdict::Inconclusive: return "inconclusive";
  }
  return "?";
}

ModelCheckResult model_check(const bytecode::Method& m,
                             const fabric::DataflowGraph& graph,
                             const ModelCheckOptions& options) {
  const Model md(m, graph);
  return explore(md, options);
}

void lint_model_check(const bytecode::Method& m, const ModelCheckResult& r,
                      const LintOptions& options, LintReport& out) {
  switch (r.verdict) {
    case ModelVerdict::Proved:
      break;
    case ModelVerdict::Deadlock:
      out.add(LintRule::TokenDeadlock, m.name, r.deadlock_node, -1,
              "abstract token-flow model reaches a stuck state: " +
                  r.witness);
      break;
    case ModelVerdict::Inconclusive:
      if (options.warnings) {
        std::ostringstream os;
        os << "model checker exhausted " << r.states_explored
           << " abstract states without a deadlock-freedom proof";
        out.add(LintRule::BoundUnproven, m.name, -1, -1, os.str());
      }
      break;
  }
}

}  // namespace javaflow::analysis
