#include "analysis/bounds.hpp"

#include <algorithm>
#include <sstream>

namespace javaflow::analysis {
namespace {

using bytecode::Group;
using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;

bool is_switch(Op op) {
  return op == Op::tableswitch || op == Op::lookupswitch;
}

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  if (a >= kNoBound || b >= kNoBound) return kNoBound;
  const std::int64_t s = a + b;
  return s >= kNoBound ? kNoBound : s;
}

// The branch arms of a buffering node: every linear address the bundle
// can be redirected to when it fires. Return/athrow terminate — no arms.
void branch_arms(const Method& m, std::int32_t v,
                 std::vector<std::int32_t>& out) {
  out.clear();
  const Instruction& inst = m.code[static_cast<std::size_t>(v)];
  if (is_switch(inst.op)) {
    const auto& table = m.switches[static_cast<std::size_t>(inst.operand)];
    out.insert(out.end(), table.targets.begin(), table.targets.end());
    out.push_back(table.default_target);
  } else if (inst.group() == Group::ControlFlow) {
    out.push_back(inst.target);
    if (inst.op != Op::goto_ && inst.op != Op::goto_w) {
      out.push_back(v + 1);  // conditional fall-through
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::int32_t MethodBounds::token_hi_at_phys(std::int32_t phys) const noexcept {
  std::int32_t hi = 0;
  for (const TokenBufferBound& b : token_buffers) {
    if (b.phys == phys) hi = std::max(hi, b.hi);
  }
  return hi;
}

MethodBounds compute_bounds(const bytecode::Method& m,
                            const sim::ExecPlan& plan) {
  MethodBounds out;
  const auto n = static_cast<std::size_t>(plan.node_count());
  if (!plan.fits() || n == 0) return out;

  // Every cost the fixpoint weights with is pre-lowered in the plan:
  // exec_cost_ticks is Table 17 in ticks, produce_extra_ticks the ring
  // service surcharge, PlanOperand::delivery_ticks the per-edge mesh
  // transit, serial_ticks_between the engine's serial hop model (floor
  // one hop, free when collapsed). Back edges were dropped at lowering,
  // mirroring the "back edges never deliver" rule below.
  const std::uint8_t* group = plan.group();
  const std::uint8_t* flags = plan.flags();
  const std::int32_t* pop_need = plan.pop_need();
  const std::int32_t* exec_cost = plan.exec_cost_ticks();
  const std::int32_t* extra = plan.produce_extra_ticks();
  const std::int32_t* oper_begin = plan.operand_begin();
  const sim::PlanOperand* opers = plan.operands();
  const std::int32_t* phys = plan.phys();
  const auto kind_of = [](std::uint8_t g) { return static_cast<Group>(g); };

  out.nodes.assign(n, NodeTiming{});

  // ---- timing: min-plus fixpoint -----------------------------------------
  //
  // head(v) under-approximates the earliest tick HEAD can reach v:
  //   * the anchor injects it (extra 0) — head(entry) = hop * (phys+1);
  //   * non-buffering nodes forward HEAD the tick it arrives;
  //   * a buffering node releases it no earlier than its own execution
  //     completes (forward flush resolves at exec-done; a backward flush
  //     happens even later, when TAIL catches up), so every arm t gets
  //     head(t) >= done(v) + serial transit.
  // fire(v) additionally waits for every operand side: the value of the
  // *cheapest* forward producer plus its mesh transit (back edges never
  // deliver — Engine::send_mesh skips them — so a side fed only by back
  // edges can never be satisfied and the node never fires: kNoBound).
  // done(v) pays the Table 17 execution cost.
  //
  // Backward arms make the relaxation graph cyclic; iterating to a
  // fixpoint terminates because tick values only ever decrease, are
  // bounded below by 0, and the relaxation is monotone over a finite
  // set of integer-valued unknowns (docs/ANALYSIS.md "Termination").
  out.nodes[0].head = plan.serial_ticks_between(-1, 0);

  std::vector<std::int32_t> arms;
  bool changed = true;
  std::size_t rounds = 0;
  while (changed && rounds < n + 2) {
    changed = false;
    ++rounds;
    for (std::size_t v = 0; v < n; ++v) {
      NodeTiming& t = out.nodes[v];
      if (t.head >= kNoBound) continue;

      std::int64_t fire = t.head;
      for (std::int32_t side = 1; side <= pop_need[v]; ++side) {
        std::int64_t best = kNoBound;
        for (std::int32_t oi = oper_begin[v]; oi < oper_begin[v + 1];
             ++oi) {
          const sim::PlanOperand& o = opers[oi];
          if (o.side != side) continue;
          const auto p = static_cast<std::size_t>(o.producer);
          const std::int64_t ready =
              sat_add(sat_add(out.nodes[p].done, extra[p]),
                      o.delivery_ticks);
          best = std::min(best, ready);
        }
        fire = std::max(fire, best);
      }
      const std::int64_t done = sat_add(fire, exec_cost[v]);
      if (fire < t.fire || done < t.done) {
        t.fire = std::min(t.fire, fire);
        t.done = std::min(t.done, done);
        changed = true;
      }

      // Propagate HEAD.
      auto relax_head = [&](std::int32_t to, std::int64_t tick) {
        if (to < 0 || static_cast<std::size_t>(to) >= n) return;
        NodeTiming& dst = out.nodes[static_cast<std::size_t>(to)];
        if (tick < dst.head) {
          dst.head = tick;
          changed = true;
        }
      };
      if ((flags[v] & sim::kPlanBuffers) == 0) {
        relax_head(
            static_cast<std::int32_t>(v) + 1,
            sat_add(t.head,
                    v + 1 < n
                        ? plan.serial_ticks_between(
                              static_cast<std::int32_t>(v),
                              static_cast<std::int32_t>(v) + 1)
                        : 0));
      } else if (t.done < kNoBound) {
        branch_arms(m, static_cast<std::int32_t>(v), arms);
        for (std::int32_t to : arms) {
          if (to < 0 || static_cast<std::size_t>(to) >= n) continue;
          relax_head(to,
                     sat_add(t.done,
                             plan.serial_ticks_between(
                                 static_cast<std::int32_t>(v), to)));
        }
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (kind_of(group[v]) == Group::Return) {
      out.lower_bound_ticks =
          std::min(out.lower_bound_ticks, out.nodes[v].done);
    }
  }

  // ---- resources ---------------------------------------------------------
  // Forward in-degree per consumer is the node's operand CSR span;
  // forward out-degree is the plan's fan-out lane (both views already
  // exclude back edges).
  out.operand_hi.assign(n, 0);
  out.forward_fanout.assign(n, 0);
  const std::int32_t* fanout = plan.forward_fanout();
  for (std::size_t v = 0; v < n; ++v) {
    out.operand_hi[v] = oper_begin[v + 1] - oper_begin[v];
    out.forward_fanout[v] = fanout[v];
    out.max_forward_fanout = std::max(out.max_forward_fanout, fanout[v]);
  }

  // Token-bundle buffering at control nodes. The bundle carries HEAD +
  // MEMORY + TAIL (3) plus max_locals register tokens; each LocalWrite
  // can additionally put one transient duplicate register token in
  // flight (fresh value emitted while the stale token is still
  // traveling to its kill site — docs/ANALYSIS.md "Token conservation").
  std::int32_t writers = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (kind_of(group[v]) == Group::LocalWrite) ++writers;
  }
  const std::int32_t bundle_hi = 3 + plan.max_locals() + writers;
  for (std::size_t v = 0; v < n; ++v) {
    if ((flags[v] & sim::kPlanBuffers) == 0) continue;
    TokenBufferBound b;
    b.node = static_cast<std::int32_t>(v);
    b.phys = phys[v];
    if (out.nodes[v].head < kNoBound) {
      // HEAD is provably buffered while the node holds; a firing Return
      // has provably buffered TAIL as well (fire_ready demands it).
      b.lo = kind_of(group[v]) == Group::Return &&
                     out.nodes[v].fire < kNoBound
                 ? 2
                 : 1;
    }
    b.hi = bundle_hi;
    out.token_buffers.push_back(b);
  }

  out.valid = true;
  return out;
}

void lint_bounds(const bytecode::Method& m, const sim::MachineConfig& config,
                 const MethodBounds& bounds, const LintOptions& options,
                 LintReport& out) {
  if (!bounds.valid) return;
  const std::size_t n = m.code.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (bounds.nodes[v].head >= kNoBound) continue;  // unreachable
    const std::int32_t need = m.code[v].pop;
    const std::int32_t hi = bounds.operand_hi[v];
    if (need > options.node_buffer_capacity) {
      std::ostringstream os;
      os << "node provably buffers " << need
         << " operands at firing; capacity is "
         << options.node_buffer_capacity << " (" << config.name << ')';
      out.add(LintRule::BufferBoundOverflow, m.name,
              static_cast<std::int32_t>(v), -1, os.str());
    } else if (options.warnings && hi > options.node_buffer_capacity) {
      std::ostringstream os;
      os << "up to " << hi
         << " operand values may arrive before firing; capacity "
         << options.node_buffer_capacity
         << " — overflow possible but not proven (" << config.name << ')';
      out.add(LintRule::BoundUnproven, m.name, static_cast<std::int32_t>(v),
              -1, os.str());
    }
  }
}

void check_metrics_against_bounds(const std::string& method_name,
                                  std::string_view config_name,
                                  std::string_view scenario_name,
                                  const sim::RunMetrics& metrics,
                                  const obs::MetricsRegistry& registry,
                                  const MethodBounds& bounds,
                                  LintReport& out) {
  if (!bounds.valid || !metrics.fits || !metrics.completed ||
      metrics.timed_out || metrics.exception) {
    return;
  }
  auto tag = [&](std::ostringstream& os) {
    os << " [" << config_name << '/' << scenario_name << ']';
  };
  if (bounds.lower_bound_ticks >= kNoBound) {
    std::ostringstream os;
    os << "engine completed in " << metrics.ticks
       << " ticks but the analyzer proves no Return is reachable";
    tag(os);
    out.add(LintRule::BoundViolation, method_name, -1, -1, os.str());
  } else if (metrics.ticks < bounds.lower_bound_ticks) {
    std::ostringstream os;
    os << "measured " << metrics.ticks
       << " ticks beats the static critical-path lower bound "
       << bounds.lower_bound_ticks;
    tag(os);
    out.add(LintRule::BoundViolation, method_name, -1, -1, os.str());
  }
  const auto& hwm = registry.buffer_hwm_by_node;
  for (std::size_t p = 0; p < hwm.size(); ++p) {
    if (hwm[p] == 0) continue;
    const std::int32_t limit =
        bounds.token_hi_at_phys(static_cast<std::int32_t>(p));
    if (static_cast<std::int64_t>(hwm[p]) > limit) {
      std::ostringstream os;
      os << "buffer high-water mark " << hwm[p] << " at physical node " << p
         << " exceeds the static token-buffer bound " << limit;
      tag(os);
      out.add(LintRule::BoundViolation, method_name, -1,
              static_cast<std::int32_t>(p), os.str());
    }
  }
}

}  // namespace javaflow::analysis
