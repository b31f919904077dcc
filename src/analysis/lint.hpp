// Fabric lint — static verification of resolved dataflow graphs,
// placements and token ordering.
//
// The ByteCode verifier enforces the paper's §3.6 structural restrictions
// on the *input* program; nothing before this pass checked the *outputs*
// of address resolution and loading — the producer/consumer edges, fabric
// slot assignments and serial-token legality the execution engine simply
// assumes. Each rule below is a machine invariant with a paper citation
// (see docs/LINT.md for the full catalogue):
//
//   JF-E001 dangling-edge       §6.2  every need is captured by exactly
//                                     the resolved producers; no edge may
//                                     reference a nonexistent operand
//   JF-E002 inconsistent-edge   §4.2  the per-producer consumer arrays
//                                     must agree with the edge list
//   JF-E003 operand-mismatch    §3.6  pop/push counts and operand types
//                                     match the opcode signature
//   JF-E004 untokenized-cycle   §6.3  a dataflow cycle is only legal when
//                                     the serial token bundle re-arms it
//   JF-E005 capacity-overflow   §2.1  per-node buffering bounds max_stack
//   JF-E006 fanout-overflow     §4.2  consumer-address arrays are finite
//   JF-E007 unplaced-node       §6.2  every reachable instruction holds a
//                                     type-compatible fabric slot
//   JF-W101 back-edge           §5.4  valid Java yields no back merges
//   JF-W102 unreachable-code    §3.6  dead instructions waste fabric slots
//
// PR 7 adds the bound/model-check rules (see docs/ANALYSIS.md):
//
//   JF-E008 bound-overflow      §2.1  a node provably needs more operand
//                                     buffering than one node provides
//   JF-E009 token-deadlock      §6.3  the abstract token-flow model
//                                     checker found a reachable stuck state
//   JF-E010 bound-violation     §6.1  measured engine metrics contradict a
//                                     proven static bound (cross-check)
//   JF-W103 bound-unproven      §2.1  static upper bound exceeds capacity
//                                     (possible overflow, not proven)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bytecode/method.hpp"
#include "bytecode/verifier.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"
#include "sim/config.hpp"

namespace javaflow::analysis {

enum class LintSeverity : std::uint8_t { Warning, Error };
std::string_view lint_severity_name(LintSeverity s) noexcept;

enum class LintRule : std::uint8_t {
  DanglingEdge,      // JF-E001
  InconsistentEdge,  // JF-E002
  OperandMismatch,   // JF-E003
  UntokenizedCycle,  // JF-E004
  CapacityOverflow,  // JF-E005
  FanoutOverflow,    // JF-E006
  UnplacedNode,        // JF-E007
  BackEdge,            // JF-W101
  UnreachableCode,     // JF-W102
  BufferBoundOverflow, // JF-E008
  TokenDeadlock,       // JF-E009
  BoundViolation,      // JF-E010
  BoundUnproven,       // JF-W103
};

std::string_view lint_rule_id(LintRule r) noexcept;    // "JF-E001"
std::string_view lint_rule_name(LintRule r) noexcept;  // "dangling-edge"
LintSeverity lint_rule_severity(LintRule r) noexcept;

// One structured diagnostic. `pc` is the linear instruction address the
// finding anchors to (-1 = method-level); `slot` the fabric chain slot
// for placement findings (-1 = not placement-related).
struct LintFinding {
  LintRule rule = LintRule::DanglingEdge;
  LintSeverity severity = LintSeverity::Error;
  std::string method;
  std::int32_t pc = -1;
  std::int32_t slot = -1;
  std::string message;

  bool operator==(const LintFinding&) const = default;
};

struct LintOptions {
  // Per-node operand buffering (§2.1): the machine decides whether a
  // method fits the fabric by comparing max_stack against what one node
  // can buffer — control nodes hold the whole serial token bundle (§6.3),
  // which grows with the operand population in flight. The 1605-method
  // corpus peaks at max_stack 8.
  std::int32_t node_buffer_capacity = 16;
  // Consumer-address array size per node (§4.2 targetDataFlowAddresses).
  // Table 10 measures corpus fan-out at <= 4 without optimization.
  std::int32_t mesh_fanout_limit = 16;
  // Emit the warning-severity rules (JF-W101/JF-W102).
  bool warnings = true;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::int32_t errors = 0;
  std::int32_t warnings = 0;
  std::size_t methods_linted = 0;
  std::size_t placements_linted = 0;

  bool clean() const noexcept { return errors == 0; }
  bool has(LintRule r) const;
  void add(LintRule rule, std::string method, std::int32_t pc,
           std::int32_t slot, std::string message);
  void merge(LintReport&& other);
};

// ---- pass entry points ---------------------------------------------------
//
// The layered entry points mirror how artifacts become available: graph
// rules need only (method, verify result, graph); placement rules add a
// fabric + placement; the bound rules (analysis/bounds.hpp) add a lowered
// plan and the deadlock rules (analysis/model_check.hpp) the graph alone.
// `lint_method` and `lint_corpus` run all of them in one pass per method.

// Graph-level rules: JF-E001..JF-E006, JF-W101, JF-W102. `vr` must be the
// verify result for `m` (lint reuses its entry_depth/entry_stack for
// reachability and operand typing).
void lint_graph(const bytecode::Method& m, const bytecode::ConstantPool& pool,
                const bytecode::VerifyResult& vr,
                const fabric::DataflowGraph& graph, const LintOptions& options,
                LintReport& out);

// Placement-level rules: JF-E007 (budget misses, unassigned or duplicated
// slots, node-type incompatibilities).
void lint_placement(const bytecode::Method& m, const fabric::Fabric& fabric,
                    const fabric::Placement& placement,
                    const bytecode::VerifyResult& vr,
                    const LintOptions& options, LintReport& out);

// Lints one method on one config: verifies it and builds its dataflow
// graph once, runs the graph rules and the token-flow model checker
// (JF-E009), then places it on a fabric built from `config`, runs the
// placement rules and, when it fits, lowers one plan and runs the bound
// rules (JF-E008 / JF-W103) on it. A verification failure is reported as
// a lone JF-E003 (the machine must never load such code); a placement
// that does not fit as a lone JF-E007, with no bounds.
LintReport lint_method(const bytecode::Method& m,
                       const bytecode::ConstantPool& pool,
                       const sim::MachineConfig& config,
                       const LintOptions& options = {});

// lint_method over every method of `program` and every config, in one
// walk: each method is verified and its graph built once, and each
// (method, config) placed and lowered once. Within a method, findings
// come in the order graph rules, model check, then per config placement
// and bound rules. `threads` follows SweepOptions semantics (1 = inline,
// 0 = hardware concurrency, n = exactly n); the report is identical for
// every thread count.
LintReport lint_corpus(const bytecode::Program& program,
                       const std::vector<sim::MachineConfig>& configs,
                       const LintOptions& options = {}, int threads = 1);

// ---- rendering -----------------------------------------------------------

// One finding per line: "error JF-E001 [dangling-edge] Method @pc: ...".
std::string to_text(const LintReport& report);
// The trailing line of to_text: totals plus per-rule finding counts in
// rule-id order ("... 2 errors, 1 warning [JF-E001 x2, JF-W102 x1]").
std::string to_summary(const LintReport& report);
// Machine-readable: {"errors":N,"warnings":N,"findings":[{...},...]}.
std::string to_json(const LintReport& report);
// Same, plus a "configs" array of MachineConfig::canonical_text() strings
// and a "rules" per-rule count object, so reports are self-describing.
std::string to_json(const LintReport& report,
                    const std::vector<sim::MachineConfig>& configs);

}  // namespace javaflow::analysis
