#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/model_check.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"

namespace javaflow::analysis {
namespace {

using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;
using bytecode::OpInfo;
using bytecode::ValueType;
using fabric::DataflowGraph;
using fabric::Edge;
using bytecode::is_typed_sig_char;
using bytecode::type_from_sig_char;

std::string_view node_type_name(bytecode::NodeType t) noexcept {
  switch (t) {
    case bytecode::NodeType::Arithmetic: return "arithmetic";
    case bytecode::NodeType::FloatingPoint: return "floating-point";
    case bytecode::NodeType::Storage: return "storage";
    case bytecode::NodeType::Control: return "control";
    case bytecode::NodeType::Blank: return "blank";
    case bytecode::NodeType::Anchor: return "anchor";
  }
  return "?";
}

// True when `linear` is in range and the verifier reached it. An empty
// entry_depth (unverified input) conservatively counts everything as
// reachable so the structural rules still fire.
bool reachable(const bytecode::VerifyResult& vr, std::int32_t linear) {
  if (linear < 0) return false;
  const auto idx = static_cast<std::size_t>(linear);
  if (idx >= vr.entry_depth.size()) return true;
  return vr.entry_depth[idx] >= 0;
}

// The serial-token loop intervals: every backward control transfer
// [target, branch] re-arms the nodes it spans each iteration (§6.3
// "Control Flow" — the HEAD_TOKEN passing up the reverse network resets
// every node it passes). A dataflow back edge is executable only inside
// such an interval.
std::vector<std::pair<std::int32_t, std::int32_t>> token_loop_intervals(
    const Method& m) {
  std::vector<std::pair<std::int32_t, std::int32_t>> loops;
  for (std::size_t j = 0; j < m.code.size(); ++j) {
    const Instruction& inst = m.code[j];
    const auto at = static_cast<std::int32_t>(j);
    if (inst.is_branch() && inst.target >= 0 && inst.target < at) {
      loops.emplace_back(inst.target, at);
    }
    if ((inst.op == Op::tableswitch || inst.op == Op::lookupswitch) &&
        inst.operand >= 0 &&
        static_cast<std::size_t>(inst.operand) < m.switches.size()) {
      const bytecode::SwitchTable& t =
          m.switches[static_cast<std::size_t>(inst.operand)];
      for (const std::int32_t target : t.targets) {
        if (target >= 0 && target < at) loops.emplace_back(target, at);
      }
      if (t.default_target >= 0 && t.default_target < at) {
        loops.emplace_back(t.default_target, at);
      }
    }
  }
  return loops;
}

}  // namespace

std::string_view lint_severity_name(LintSeverity s) noexcept {
  return s == LintSeverity::Error ? "error" : "warning";
}

std::string_view lint_rule_id(LintRule r) noexcept {
  switch (r) {
    case LintRule::DanglingEdge: return "JF-E001";
    case LintRule::InconsistentEdge: return "JF-E002";
    case LintRule::OperandMismatch: return "JF-E003";
    case LintRule::UntokenizedCycle: return "JF-E004";
    case LintRule::CapacityOverflow: return "JF-E005";
    case LintRule::FanoutOverflow: return "JF-E006";
    case LintRule::UnplacedNode: return "JF-E007";
    case LintRule::BackEdge: return "JF-W101";
    case LintRule::UnreachableCode: return "JF-W102";
    case LintRule::BufferBoundOverflow: return "JF-E008";
    case LintRule::TokenDeadlock: return "JF-E009";
    case LintRule::BoundViolation: return "JF-E010";
    case LintRule::BoundUnproven: return "JF-W103";
  }
  return "JF-????";
}

std::string_view lint_rule_name(LintRule r) noexcept {
  switch (r) {
    case LintRule::DanglingEdge: return "dangling-edge";
    case LintRule::InconsistentEdge: return "inconsistent-edge";
    case LintRule::OperandMismatch: return "operand-mismatch";
    case LintRule::UntokenizedCycle: return "untokenized-cycle";
    case LintRule::CapacityOverflow: return "capacity-overflow";
    case LintRule::FanoutOverflow: return "fanout-overflow";
    case LintRule::UnplacedNode: return "unplaced-node";
    case LintRule::BackEdge: return "back-edge";
    case LintRule::UnreachableCode: return "unreachable-code";
    case LintRule::BufferBoundOverflow: return "bound-overflow";
    case LintRule::TokenDeadlock: return "token-deadlock";
    case LintRule::BoundViolation: return "bound-violation";
    case LintRule::BoundUnproven: return "bound-unproven";
  }
  return "?";
}

LintSeverity lint_rule_severity(LintRule r) noexcept {
  switch (r) {
    case LintRule::BackEdge:
    case LintRule::UnreachableCode:
    case LintRule::BoundUnproven:
      return LintSeverity::Warning;
    default:
      return LintSeverity::Error;
  }
}

bool LintReport::has(LintRule r) const {
  return std::any_of(findings.begin(), findings.end(),
                     [r](const LintFinding& f) { return f.rule == r; });
}

void LintReport::add(LintRule rule, std::string method, std::int32_t pc,
                     std::int32_t slot, std::string message) {
  LintFinding f;
  f.rule = rule;
  f.severity = lint_rule_severity(rule);
  f.method = std::move(method);
  f.pc = pc;
  f.slot = slot;
  f.message = std::move(message);
  if (f.severity == LintSeverity::Error) {
    ++errors;
  } else {
    ++warnings;
  }
  findings.push_back(std::move(f));
}

void LintReport::merge(LintReport&& other) {
  errors += other.errors;
  warnings += other.warnings;
  methods_linted += other.methods_linted;
  placements_linted += other.placements_linted;
  findings.insert(findings.end(),
                  std::make_move_iterator(other.findings.begin()),
                  std::make_move_iterator(other.findings.end()));
}

void lint_graph(const Method& m, const bytecode::ConstantPool& pool,
                const bytecode::VerifyResult& vr, const DataflowGraph& graph,
                const LintOptions& options, LintReport& out) {
  const auto n = static_cast<std::int32_t>(m.code.size());
  ++out.methods_linted;

  // ---- JF-E003: instruction operand counts and typing (§3.6) ----
  if (!vr.ok) {
    out.add(LintRule::OperandMismatch, m.name, -1, -1,
            "method fails ByteCode verification: " + vr.error);
  }
  for (std::int32_t i = 0; i < n; ++i) {
    const Instruction& inst = m.code[static_cast<std::size_t>(i)];
    const OpInfo& info = op_info(inst.op);
    if (!info.valid) {
      out.add(LintRule::OperandMismatch, m.name, i, -1,
              "instruction uses an unassigned opcode byte");
      continue;
    }
    if (info.pop == bytecode::kVarCount) {
      // Calls and multianewarray resolve pop/push per site (§6.2
      // "Loading"); check against the constant-pool signature.
      if (inst.group() == bytecode::Group::Call) {
        if (inst.operand < 0 ||
            static_cast<std::size_t>(inst.operand) >= pool.size() ||
            pool.at(inst.operand).kind !=
                bytecode::CpEntry::Kind::Method) {
          out.add(LintRule::OperandMismatch, m.name, i, -1,
                  "call site does not reference a method pool entry");
        } else {
          const bytecode::MethodRef& ref = pool.at(inst.operand).method;
          if (inst.pop != ref.arg_values) {
            std::ostringstream os;
            os << "call pops " << int(inst.pop) << " but signature takes "
               << int(ref.arg_values) << " values";
            out.add(LintRule::OperandMismatch, m.name, i, -1, os.str());
          }
          const std::uint8_t want_push =
              ref.return_type == ValueType::Void ? 0 : 1;
          if (inst.push != want_push) {
            out.add(LintRule::OperandMismatch, m.name, i, -1,
                    "call push count disagrees with return type");
          }
        }
      } else if (inst.op == Op::multianewarray &&
                 (inst.pop < 1 || inst.push != 1)) {
        out.add(LintRule::OperandMismatch, m.name, i, -1,
                "multianewarray must pop >=1 dimensions and push 1 ref");
      }
    } else {
      if (inst.pop != info.pop || inst.push != info.push) {
        std::ostringstream os;
        os << "pop/push " << int(inst.pop) << "/" << int(inst.push)
           << " disagree with opcode signature " << int(info.pop) << "/"
           << int(info.push);
        out.add(LintRule::OperandMismatch, m.name, i, -1, os.str());
      }
    }
    const auto idx = static_cast<std::size_t>(i);
    if (idx < vr.entry_depth.size() && vr.entry_depth[idx] >= 0) {
      if (vr.entry_depth[idx] < inst.pop) {
        out.add(LintRule::OperandMismatch, m.name, i, -1,
                "entry stack shallower than the instruction's pops");
      } else if (vr.ok &&
                 info.pop != bytecode::kVarCount &&
                 idx < vr.entry_stack.size() &&
                 vr.entry_stack[idx].size() ==
                     static_cast<std::size_t>(vr.entry_depth[idx])) {
        const std::string_view pops =
            info.sig.substr(0, info.sig.find('>'));
        const auto& stack = vr.entry_stack[idx];
        for (std::uint8_t s = 1;
             s <= inst.pop && pops.size() == inst.pop; ++s) {
          const char want = pops[pops.size() - s];
          if (!is_typed_sig_char(want)) continue;
          const ValueType actual = stack[stack.size() - s];
          if (actual != type_from_sig_char(want)) {
            std::ostringstream os;
            os << "operand side " << int(s) << " is "
               << bytecode::value_type_name(actual)
               << " but the signature expects " << want;
            out.add(LintRule::OperandMismatch, m.name, i, -1, os.str());
          }
        }
      }
    } else if (options.warnings && idx < vr.entry_depth.size()) {
      // ---- JF-W102: dead instruction occupying a fabric slot ----
      out.add(LintRule::UnreachableCode, m.name, i, -1,
              "instruction is unreachable from the method entry");
    }
  }

  // ---- edge structure ----
  if (graph.consumers_of.size() != static_cast<std::size_t>(n)) {
    std::ostringstream os;
    os << "consumer index covers " << graph.consumers_of.size()
       << " producers for a " << n << "-instruction method";
    out.add(LintRule::InconsistentEdge, m.name, -1, -1, os.str());
  }

  using Key = std::tuple<std::int32_t, std::int32_t, std::uint8_t>;
  std::map<Key, int> edge_multiplicity;
  std::map<std::pair<std::int32_t, std::uint8_t>, int> producers_per_side;
  for (const Edge& e : graph.edges) {
    // ---- JF-E001: edges must reference real operands ----
    if (e.producer < 0 || e.producer >= n || e.consumer < 0 ||
        e.consumer >= n) {
      std::ostringstream os;
      os << "edge " << e.producer << " -> " << e.consumer
         << " references an address outside the method";
      out.add(LintRule::DanglingEdge, m.name,
              e.consumer >= 0 && e.consumer < n ? e.consumer : -1, -1,
              os.str());
      continue;
    }
    const Instruction& consumer = m.code[static_cast<std::size_t>(e.consumer)];
    if (consumer.pop == 0) {
      std::ostringstream os;
      os << "edge from " << e.producer << " feeds "
         << bytecode::op_name(consumer.op) << " which pops nothing";
      out.add(LintRule::DanglingEdge, m.name, e.consumer, -1, os.str());
    } else if (e.side < 1 || e.side > consumer.pop) {
      std::ostringstream os;
      os << "edge from " << e.producer << " targets operand side "
         << int(e.side) << " of a " << int(consumer.pop) << "-pop consumer";
      out.add(LintRule::DanglingEdge, m.name, e.consumer, -1, os.str());
    }
    const Instruction& producer = m.code[static_cast<std::size_t>(e.producer)];
    if (producer.push == 0) {
      std::ostringstream os;
      os << "edge claims " << bytecode::op_name(producer.op) << " @ "
         << e.producer << " produces a value but it pushes nothing";
      out.add(LintRule::DanglingEdge, m.name, e.producer, -1, os.str());
    }
    if (e.back != (e.producer >= e.consumer)) {
      out.add(LintRule::InconsistentEdge, m.name, e.consumer, -1,
              "back flag disagrees with producer/consumer ordering");
    }
    ++edge_multiplicity[{e.producer, e.consumer, e.side}];
    ++producers_per_side[{e.consumer, e.side}];
  }

  // ---- JF-E002: duplicates and consumer-array consistency (§4.2) ----
  for (const auto& [key, count] : edge_multiplicity) {
    if (count < 2) continue;
    const auto& [p, c, side] = key;
    std::ostringstream os;
    os << "edge " << p << " -> " << c << " side " << int(side)
       << " appears " << count << " times";
    out.add(LintRule::InconsistentEdge, m.name, c, -1, os.str());
  }
  for (const Edge& e : graph.edges) {
    if (e.producer < 0 || e.producer >= n || e.consumer < 0 ||
        e.consumer >= n) {
      continue;
    }
    const auto it = producers_per_side.find({e.consumer, e.side});
    const bool merge = it != producers_per_side.end() && it->second >= 2;
    if (e.merge != merge) {
      out.add(LintRule::InconsistentEdge, m.name, e.consumer, -1,
              "merge flag disagrees with the producer count of its side");
    }
  }
  {
    std::map<Key, int> indexed;
    const std::size_t covered =
        std::min(graph.consumers_of.size(), static_cast<std::size_t>(n));
    for (std::size_t p = 0; p < covered; ++p) {
      for (const Edge& e : graph.consumers_of[p]) {
        if (e.producer != static_cast<std::int32_t>(p)) {
          out.add(LintRule::InconsistentEdge, m.name,
                  static_cast<std::int32_t>(p), -1,
                  "consumer array entry names a different producer");
        }
        ++indexed[{e.producer, e.consumer, e.side}];
      }
    }
    if (indexed != edge_multiplicity) {
      out.add(LintRule::InconsistentEdge, m.name, -1, -1,
              "per-producer consumer arrays disagree with the edge list");
    }
  }

  // ---- JF-E001: every pop of every reachable instruction resolves ----
  for (std::int32_t i = 0; i < n; ++i) {
    const Instruction& inst = m.code[static_cast<std::size_t>(i)];
    if (inst.pop == 0 || !reachable(vr, i)) continue;
    for (std::uint8_t s = 1; s <= inst.pop; ++s) {
      const auto it = producers_per_side.find({i, s});
      if (it == producers_per_side.end() || it->second == 0) {
        std::ostringstream os;
        os << "operand side " << int(s)
           << " has no resolved producer (the node can never fire)";
        out.add(LintRule::DanglingEdge, m.name, i, -1, os.str());
      }
    }
  }

  // ---- JF-E004 / JF-W101: dataflow cycles vs the token bundle (§6.3,
  // §5.4). A back edge is executable only when a serial-token loop spans
  // it; even then valid Java never produces one (Table 7). ----
  const auto loops = token_loop_intervals(m);
  for (const auto& [key, count] : edge_multiplicity) {
    const auto& [p, c, side] = key;
    if (p < c) continue;
    const bool covered =
        std::any_of(loops.begin(), loops.end(), [p = p, c = c](const auto& l) {
          return l.first <= c && l.second >= p;
        });
    if (!covered) {
      std::ostringstream os;
      os << "back edge " << p << " -> " << c << " side " << int(side)
         << " is not re-armed by any token loop: the consumer deadlocks";
      out.add(LintRule::UntokenizedCycle, m.name, c, -1, os.str());
    } else if (options.warnings) {
      std::ostringstream os;
      os << "back edge " << p << " -> " << c
         << " (valid Java compiles loop-carried values to registers)";
      out.add(LintRule::BackEdge, m.name, c, -1, os.str());
    }
  }

  // ---- JF-E005: per-node buffering (§2.1) ----
  if (m.max_stack > options.node_buffer_capacity) {
    std::ostringstream os;
    os << "max_stack " << m.max_stack << " exceeds the per-node operand "
       << "buffer capacity " << options.node_buffer_capacity;
    out.add(LintRule::CapacityOverflow, m.name, -1, -1, os.str());
  }
  for (const auto& [key, count] : producers_per_side) {
    if (count <= options.node_buffer_capacity) continue;
    std::ostringstream os;
    os << "operand side " << int(key.second) << " merges " << count
       << " producers, more than one node buffers";
    out.add(LintRule::CapacityOverflow, m.name, key.first, -1, os.str());
  }

  // ---- JF-E006: consumer-address array bounds (§4.2) ----
  const std::size_t covered =
      std::min(graph.consumers_of.size(), static_cast<std::size_t>(n));
  for (std::size_t p = 0; p < covered; ++p) {
    const std::size_t fan = graph.consumers_of[p].size();
    if (fan <= static_cast<std::size_t>(options.mesh_fanout_limit)) continue;
    std::ostringstream os;
    os << "fan-out " << fan << " exceeds the consumer-address array limit "
       << options.mesh_fanout_limit;
    out.add(LintRule::FanoutOverflow, m.name, static_cast<std::int32_t>(p),
            -1, os.str());
  }
}

void lint_placement(const Method& m, const fabric::Fabric& fabric,
                    const fabric::Placement& placement,
                    const bytecode::VerifyResult& vr,
                    const LintOptions& options, LintReport& out) {
  (void)options;
  ++out.placements_linted;
  const auto n = static_cast<std::int32_t>(m.code.size());
  if (!placement.fits) {
    std::ostringstream os;
    os << "method does not fit the fabric (capacity "
       << fabric.options().capacity << " slots, layout "
       << fabric::layout_name(fabric.options().layout) << ")";
    out.add(LintRule::UnplacedNode, m.name, -1, -1, os.str());
    return;  // slot assignments are partial past the budget miss
  }
  if (placement.slot_of.size() != static_cast<std::size_t>(n)) {
    std::ostringstream os;
    os << "placement covers " << placement.slot_of.size() << " of " << n
       << " instructions";
    out.add(LintRule::UnplacedNode, m.name, -1, -1, os.str());
  }
  std::map<std::int32_t, std::int32_t> first_at_slot;
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t slot = placement.slot(i);
    if (slot < 0) {
      if (reachable(vr, i)) {
        out.add(LintRule::UnplacedNode, m.name, i, -1,
                "reachable instruction holds no fabric slot");
      }
      continue;
    }
    if (slot >= fabric.options().capacity) {
      std::ostringstream os;
      os << "slot " << slot << " lies beyond the node budget "
         << fabric.options().capacity;
      out.add(LintRule::UnplacedNode, m.name, i, slot, os.str());
      continue;
    }
    const bytecode::NodeType want =
        bytecode::node_type_for(m.code[static_cast<std::size_t>(i)].group());
    if (!fabric.slot_accepts(slot, want)) {
      std::ostringstream os;
      os << "slot hosts a " << node_type_name(fabric.slot_type(slot))
         << " node but the instruction needs " << node_type_name(want);
      out.add(LintRule::UnplacedNode, m.name, i, slot, os.str());
    }
    const auto [it, inserted] = first_at_slot.emplace(slot, i);
    if (!inserted) {
      std::ostringstream os;
      os << "slot already holds instruction @" << it->second;
      out.add(LintRule::UnplacedNode, m.name, i, slot, os.str());
    }
  }
}

namespace {

// Lowering scratch owned by one worker lane: the builder and the plan it
// rebuilds in place keep their capacity from one placement to the next.
struct LaneScratch {
  sim::ExecPlanBuilder builder;
  sim::ExecPlan plan;
};

// Every rule for one method, in the report's fixed order: the graph
// rules, the model check, then per config its placement rules and bound
// rules. The method is verified and its graph built once; each config
// is placed and lowered once. `fabrics[i]` is built from `configs[i]`.
void lint_one(const Method& m, const bytecode::ConstantPool& pool,
              std::span<const sim::MachineConfig> configs,
              std::span<const fabric::Fabric> fabrics,
              const LintOptions& options, LaneScratch& scratch,
              LintReport& out) {
  const bytecode::VerifyResult vr = bytecode::verify(m, pool);
  if (!vr.ok) {
    ++out.methods_linted;
    out.add(LintRule::OperandMismatch, m.name, -1, -1,
            "method fails ByteCode verification: " + vr.error);
    return;
  }
  const DataflowGraph graph = fabric::build_dataflow_graph(m, pool);
  lint_graph(m, pool, vr, graph, options, out);
  lint_model_check(m, model_check(m, graph), options, out);
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const fabric::Placement placement = fabric::load_method(fabrics[ci], m);
    lint_placement(m, fabrics[ci], placement, vr, options, out);
    if (!placement.fits) continue;  // JF-E007 says why; nothing to bound
    scratch.builder.build_into(scratch.plan, m, graph, &placement,
                               configs[ci]);
    lint_bounds(m, configs[ci], compute_bounds(m, scratch.plan), options,
                out);
  }
}

}  // namespace

LintReport lint_method(const Method& m, const bytecode::ConstantPool& pool,
                       const sim::MachineConfig& config,
                       const LintOptions& options) {
  const fabric::Fabric fabric(config.fabric_options());
  LaneScratch scratch;
  LintReport report;
  lint_one(m, pool, {&config, 1}, {&fabric, 1}, options, scratch, report);
  return report;
}

LintReport lint_corpus(const bytecode::Program& program,
                       const std::vector<sim::MachineConfig>& configs,
                       const LintOptions& options, int threads) {
  // The fabrics are immutable during loading, so one set serves every
  // worker lane.
  std::vector<fabric::Fabric> fabrics;
  fabrics.reserve(configs.size());
  for (const sim::MachineConfig& config : configs) {
    fabrics.emplace_back(config.fabric_options());
  }

  // One report slot per method, concatenated in method order, keeps the
  // findings identical for every thread count.
  const std::size_t n = program.methods.size();
  std::vector<LintReport> per_method(n);
  const unsigned lanes = util::resolve(threads);
  std::vector<LaneScratch> scratch(std::min<std::size_t>(lanes, n));
  util::parallel_for(lanes, n, [&](std::size_t mi, unsigned lane) {
    lint_one(program.methods[mi], program.pool, configs, fabrics, options,
             scratch[lane], per_method[mi]);
  });

  LintReport report;
  for (LintReport& r : per_method) report.merge(std::move(r));
  return report;
}

namespace {

// Every rule in stable id order, for per-rule summary counts.
constexpr LintRule kAllRules[] = {
    LintRule::DanglingEdge,      LintRule::InconsistentEdge,
    LintRule::OperandMismatch,   LintRule::UntokenizedCycle,
    LintRule::CapacityOverflow,  LintRule::FanoutOverflow,
    LintRule::UnplacedNode,      LintRule::BufferBoundOverflow,
    LintRule::TokenDeadlock,     LintRule::BoundViolation,
    LintRule::BackEdge,          LintRule::UnreachableCode,
    LintRule::BoundUnproven,
};

std::vector<std::pair<LintRule, std::size_t>> rule_counts(
    const LintReport& report) {
  std::vector<std::pair<LintRule, std::size_t>> counts;
  for (LintRule r : kAllRules) {
    const auto n = static_cast<std::size_t>(
        std::count_if(report.findings.begin(), report.findings.end(),
                      [r](const LintFinding& f) { return f.rule == r; }));
    if (n > 0) counts.emplace_back(r, n);
  }
  return counts;
}

}  // namespace

std::string to_summary(const LintReport& report) {
  std::ostringstream os;
  os << report.methods_linted << " methods, " << report.placements_linted
     << " placements: " << report.errors << " errors, " << report.warnings
     << " warnings";
  const auto counts = rule_counts(report);
  if (!counts.empty()) {
    os << " [";
    bool first = true;
    for (const auto& [rule, n] : counts) {
      if (!first) os << ", ";
      first = false;
      os << lint_rule_id(rule) << " x" << n;
    }
    os << ']';
  }
  return os.str();
}

std::string to_text(const LintReport& report) {
  std::ostringstream os;
  for (const LintFinding& f : report.findings) {
    os << lint_severity_name(f.severity) << ' ' << lint_rule_id(f.rule)
       << " [" << lint_rule_name(f.rule) << "] " << f.method;
    if (f.pc >= 0) os << " @" << f.pc;
    if (f.slot >= 0) os << " slot " << f.slot;
    os << ": " << f.message << '\n';
  }
  os << to_summary(report) << '\n';
  return os.str();
}

std::string to_json(const LintReport& report) {
  std::ostringstream os;
  os << "{\"methods\":" << report.methods_linted
     << ",\"placements\":" << report.placements_linted
     << ",\"errors\":" << report.errors
     << ",\"warnings\":" << report.warnings << ",\"findings\":[";
  bool first = true;
  for (const LintFinding& f : report.findings) {
    if (!first) os << ',';
    first = false;
    os << "{\"rule\":\"" << lint_rule_id(f.rule) << "\",\"name\":\""
       << lint_rule_name(f.rule) << "\",\"severity\":\""
       << lint_severity_name(f.severity) << "\",\"method\":\"";
    util::json_escape(os, f.method);
    os << "\",\"pc\":" << f.pc << ",\"slot\":" << f.slot
       << ",\"message\":\"";
    util::json_escape(os, f.message);
    os << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string to_json(const LintReport& report,
                    const std::vector<sim::MachineConfig>& configs) {
  std::string base = to_json(report);
  // Splice the self-describing fields in front of the closing brace.
  std::ostringstream os;
  os << base.substr(0, base.size() - 1) << ",\"configs\":[";
  bool first = true;
  for (const sim::MachineConfig& c : configs) {
    if (!first) os << ',';
    first = false;
    os << '"';
    util::json_escape(os, c.canonical_text());
    os << '"';
  }
  os << "],\"rules\":{";
  first = true;
  for (const auto& [rule, n] : rule_counts(report)) {
    if (!first) os << ',';
    first = false;
    os << '"' << lint_rule_id(rule) << "\":" << n;
  }
  os << "}}";
  return os.str();
}

}  // namespace javaflow::analysis
