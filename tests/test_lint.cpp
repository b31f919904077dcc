// Fabric lint tests: each rule id must fire on a hand-crafted malformed
// artifact (graph corruption, bad placement, capacity/fan-out overrun),
// the clean cases must stay silent, and the full 1605-method corpus must
// lint clean on every Table 15 configuration.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/lint.hpp"
#include "bytecode/assembler.hpp"
#include "bytecode/verifier.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "sim/config.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::analysis {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using fabric::DataflowGraph;
using fabric::Edge;

// Straight-line arithmetic: iconst, iconst, iadd, ireturn.
bytecode::Method straight_line(Program& p) {
  Assembler a(p, "lint.straight()I", "test");
  a.returns(ValueType::Int);
  a.iconst(2).iconst(3).op(Op::iadd).op(Op::ireturn);
  return a.build();
}

// Accumulating loop whose backward branch ifgt@6 -> 0 spans [0, 6]; the
// serial token bundle re-arms every node in that interval each iteration.
bytecode::Method counting_loop(Program& p) {
  Assembler a(p, "lint.loop(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label();
  a.bind(body);
  a.iload(0).iload(0).op(Op::iadd);  // 0,1,2
  a.istore(1);                       // 3
  a.iinc(0, -1);                     // 4
  a.iload(0).ifgt(body);             // 5,6
  a.iload(1).op(Op::ireturn);        // 7,8
  return a.build();
}

struct Built {
  bytecode::Method method;
  bytecode::VerifyResult vr;
  DataflowGraph graph;
};

Built build(Program& p, bytecode::Method m) {
  Built b;
  b.method = std::move(m);
  b.vr = bytecode::verify(b.method, p.pool);
  EXPECT_TRUE(b.vr.ok) << b.vr.error;
  b.graph = fabric::build_dataflow_graph(b.method, p.pool);
  return b;
}

// Re-derives consumers_of from edges so corruptions stay consistent
// between the two views (inconsistency is its own rule, JF-E002).
void reindex(DataflowGraph& g, std::size_t n) {
  g.consumers_of.assign(n, {});
  for (const Edge& e : g.edges) {
    g.consumers_of[static_cast<std::size_t>(e.producer)].push_back(e);
  }
}

TEST(LintRules, CleanMethodProducesNoFindings) {
  Program p;
  const Built b = build(p, straight_line(p));
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty()) << to_text(report);
  EXPECT_EQ(report.methods_linted, 1u);
}

TEST(LintRules, DanglingProducerTriggersE001) {
  Program p;
  Built b = build(p, straight_line(p));
  // Drop every edge feeding iadd@2 side 1: the pop can never resolve.
  std::erase_if(b.graph.edges, [](const Edge& e) {
    return e.consumer == 2 && e.side == 1;
  });
  reindex(b.graph, b.method.code.size());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  ASSERT_TRUE(report.has(LintRule::DanglingEdge)) << to_text(report);
  EXPECT_FALSE(report.clean());
  const auto& f = report.findings.front();
  EXPECT_EQ(lint_rule_id(f.rule), "JF-E001");
  EXPECT_EQ(f.severity, LintSeverity::Error);
  EXPECT_EQ(f.pc, 2);
}

TEST(LintRules, EdgeOutOfRangeTriggersE001) {
  Program p;
  Built b = build(p, straight_line(p));
  Edge bogus;
  bogus.producer = 99;  // beyond the 4-instruction method
  bogus.consumer = 2;
  bogus.side = 1;
  b.graph.edges.push_back(bogus);
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.has(LintRule::DanglingEdge)) << to_text(report);
}

TEST(LintRules, DuplicateEdgeTriggersE002) {
  Program p;
  Built b = build(p, straight_line(p));
  b.graph.edges.push_back(b.graph.edges.front());
  reindex(b.graph, b.method.code.size());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.has(LintRule::InconsistentEdge)) << to_text(report);
  EXPECT_FALSE(report.clean());
}

TEST(LintRules, ConsumerArrayDisagreementTriggersE002) {
  Program p;
  Built b = build(p, straight_line(p));
  // Corrupt only the per-producer index, not the edge list.
  b.graph.consumers_of[0].clear();
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.has(LintRule::InconsistentEdge)) << to_text(report);
}

TEST(LintRules, OperandCountMismatchTriggersE003) {
  Program p;
  Built b = build(p, straight_line(p));
  b.method.code[2].pop = 3;  // iadd pops 2 by signature
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  ASSERT_TRUE(report.has(LintRule::OperandMismatch)) << to_text(report);
  EXPECT_FALSE(report.clean());
}

TEST(LintRules, OperandTypeMismatchTriggersE003) {
  Program p;
  Built b = build(p, straight_line(p));
  // Claim the entry stack of iadd@2 holds a float on top: the signature
  // (II>I) disagrees with the verifier-recorded operand typing.
  b.vr.entry_stack[2][1] = ValueType::Float;
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.has(LintRule::OperandMismatch)) << to_text(report);
}

TEST(LintRules, UntokenizedCycleTriggersE004) {
  Program p;
  Built b = build(p, straight_line(p));
  // A back edge with no backward control transfer anywhere: the consumer
  // waits on an operand produced only after it fires. Deadlock.
  Edge back;
  back.producer = 2;
  back.consumer = 1;
  back.side = 1;
  back.back = true;
  b.graph.edges.push_back(back);
  reindex(b.graph, b.method.code.size());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_TRUE(report.has(LintRule::UntokenizedCycle)) << to_text(report);
  EXPECT_FALSE(report.clean());
}

TEST(LintRules, TokenCoveredBackEdgeOnlyWarnsW101) {
  Program p;
  Built b = build(p, counting_loop(p));
  // Back edge iload@5 -> istore@3 inside the loop interval [0, 6]: the
  // token bundle re-arms it each iteration, so it is executable — but
  // §5.4 says valid Java never produces one, hence the warning.
  Edge back;
  back.producer = 5;
  back.consumer = 3;
  back.side = 1;
  back.back = true;
  back.merge = true;  // istore side 1 now has two producers
  b.graph.edges.push_back(back);
  for (Edge& e : b.graph.edges) {
    if (e.consumer == 3 && e.side == 1) e.merge = true;
  }
  reindex(b.graph, b.method.code.size());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  EXPECT_FALSE(report.has(LintRule::UntokenizedCycle)) << to_text(report);
  EXPECT_TRUE(report.has(LintRule::BackEdge));
  EXPECT_TRUE(report.clean());  // warning severity does not fail
  EXPECT_GT(report.warnings, 0);
}

TEST(LintRules, CapacityOverflowTriggersE005) {
  Program p;
  Built b = build(p, straight_line(p));  // max_stack == 2
  LintOptions options;
  options.node_buffer_capacity = 1;
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, options, report);
  ASSERT_TRUE(report.has(LintRule::CapacityOverflow)) << to_text(report);
  EXPECT_EQ(lint_rule_id(LintRule::CapacityOverflow), "JF-E005");
}

TEST(LintRules, FanoutOverflowTriggersE006) {
  Program p;
  Assembler a(p, "lint.fan()I", "test");
  a.returns(ValueType::Int);
  a.iconst(3);        // 0: feeds both imul sides via dup
  a.op(Op::dup);      // 1: fan-out 2
  a.op(Op::imul);     // 2
  a.op(Op::ireturn);  // 3
  Built b = build(p, a.build());
  LintOptions options;
  options.mesh_fanout_limit = 1;
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, options, report);
  ASSERT_TRUE(report.has(LintRule::FanoutOverflow)) << to_text(report);
  EXPECT_EQ(report.findings.front().pc, 1);
}

TEST(LintRules, UnplacedReachableNodeTriggersE007) {
  Program p;
  Built b = build(p, straight_line(p));
  const fabric::Fabric f(sim::config_by_name("Compact2").fabric_options());
  fabric::Placement placement = fabric::load_method(f, b.method);
  ASSERT_TRUE(placement.fits);
  placement.slot_of[2] = -1;  // un-place the iadd
  LintReport report;
  lint_placement(b.method, f, placement, b.vr, {}, report);
  ASSERT_TRUE(report.has(LintRule::UnplacedNode)) << to_text(report);
  EXPECT_EQ(report.findings.front().pc, 2);
}

TEST(LintRules, NodeBudgetMissTriggersE007) {
  Program p;
  Built b = build(p, straight_line(p));
  sim::MachineConfig config = sim::config_by_name("Compact2");
  config.capacity = 2;  // 4 instructions cannot fit
  const fabric::Fabric f(config.fabric_options());
  const fabric::Placement placement = fabric::load_method(f, b.method);
  ASSERT_FALSE(placement.fits);
  LintReport report;
  lint_placement(b.method, f, placement, b.vr, {}, report);
  EXPECT_TRUE(report.has(LintRule::UnplacedNode)) << to_text(report);
}

TEST(LintRules, SlotTypeMismatchTriggersE007) {
  Program p;
  Built b = build(p, straight_line(p));
  // On the Sparse layout odd chain slots are blank (router-only) nodes;
  // forcing an instruction onto one is an illegal placement.
  const fabric::Fabric f(sim::config_by_name("Sparse2").fabric_options());
  fabric::Placement placement = fabric::load_method(f, b.method);
  ASSERT_TRUE(placement.fits);
  ASSERT_FALSE(f.slot_accepts(1, bytecode::NodeType::Arithmetic));
  placement.slot_of[2] = 1;
  LintReport report;
  lint_placement(b.method, f, placement, b.vr, {}, report);
  EXPECT_TRUE(report.has(LintRule::UnplacedNode)) << to_text(report);
}

TEST(LintRules, DuplicateSlotAssignmentTriggersE007) {
  Program p;
  Built b = build(p, straight_line(p));
  const fabric::Fabric f(sim::config_by_name("Compact2").fabric_options());
  fabric::Placement placement = fabric::load_method(f, b.method);
  placement.slot_of[2] = placement.slot_of[1];
  LintReport report;
  lint_placement(b.method, f, placement, b.vr, {}, report);
  EXPECT_TRUE(report.has(LintRule::UnplacedNode)) << to_text(report);
}

TEST(LintRules, UnreachableCodeWarnsW102) {
  Program p;
  Assembler a(p, "lint.dead()I", "test");
  a.returns(ValueType::Int);
  auto over = a.new_label();
  a.goto_(over);      // 0
  a.op(Op::nop);      // 1: never reached
  a.bind(over);
  a.iconst(1).op(Op::ireturn);  // 2,3
  Built b = build(p, a.build());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  ASSERT_TRUE(report.has(LintRule::UnreachableCode)) << to_text(report);
  EXPECT_TRUE(report.clean());
  LintOptions no_warn;
  no_warn.warnings = false;
  LintReport silent;
  lint_graph(b.method, p.pool, b.vr, b.graph, no_warn, silent);
  EXPECT_TRUE(silent.findings.empty()) << to_text(silent);
}

TEST(LintRules, EveryRuleIdIsUniqueAndStable) {
  const LintRule all[] = {
      LintRule::DanglingEdge,     LintRule::InconsistentEdge,
      LintRule::OperandMismatch,  LintRule::UntokenizedCycle,
      LintRule::CapacityOverflow, LintRule::FanoutOverflow,
      LintRule::UnplacedNode,     LintRule::BackEdge,
      LintRule::UnreachableCode,  LintRule::BufferBoundOverflow,
      LintRule::TokenDeadlock,    LintRule::BoundViolation,
      LintRule::BoundUnproven,
  };
  std::vector<std::string_view> ids;
  for (const LintRule r : all) {
    ids.push_back(lint_rule_id(r));
    const bool is_error = lint_rule_id(r)[3] == 'E';
    EXPECT_EQ(lint_rule_severity(r) == LintSeverity::Error, is_error)
        << lint_rule_id(r);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(LintReportRendering, TextAndJsonCarryRuleIds) {
  Program p;
  Built b = build(p, straight_line(p));
  std::erase_if(b.graph.edges, [](const Edge& e) {
    return e.consumer == 2 && e.side == 1;
  });
  reindex(b.graph, b.method.code.size());
  LintReport report;
  lint_graph(b.method, p.pool, b.vr, b.graph, {}, report);
  ASSERT_FALSE(report.clean());
  const std::string text = to_text(report);
  EXPECT_NE(text.find("JF-E001"), std::string::npos) << text;
  EXPECT_NE(text.find("lint.straight()I"), std::string::npos) << text;
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"rule\":\"JF-E001\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\":"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(LintMethod, ComposesAllLayers) {
  Program p;
  const bytecode::Method m = straight_line(p);
  const LintReport report =
      lint_method(m, p.pool, sim::config_by_name("Hetero2"));
  EXPECT_TRUE(report.clean()) << to_text(report);
  EXPECT_EQ(report.methods_linted, 1u);
  EXPECT_EQ(report.placements_linted, 1u);
}

// ---- corpus-wide acceptance: the shipped corpus must lint clean ----

TEST(LintCorpus, FullCorpusLintsCleanOnEveryConfiguration) {
  const workloads::Corpus corpus = workloads::make_corpus({});
  const LintReport report =
      lint_corpus(corpus.program, sim::table15_configs(), {}, /*threads=*/0);
  EXPECT_EQ(report.errors, 0) << to_text(report);
  EXPECT_EQ(report.warnings, 0) << to_text(report);
  EXPECT_EQ(report.methods_linted, corpus.program.methods.size());
  EXPECT_EQ(report.placements_linted,
            corpus.program.methods.size() * 6);
}

TEST(LintCorpus, ParallelAndSerialReportsAgree) {
  workloads::CorpusOptions options;
  options.total_methods = 120;
  const workloads::Corpus corpus = workloads::make_corpus(options);
  const std::vector<sim::MachineConfig> configs = {
      sim::config_by_name("Compact2")};
  const LintReport serial =
      lint_corpus(corpus.program, configs, {}, /*threads=*/1);
  const LintReport parallel =
      lint_corpus(corpus.program, configs, {}, /*threads=*/4);
  EXPECT_EQ(serial.findings, parallel.findings);
  EXPECT_EQ(serial.errors, parallel.errors);
  EXPECT_EQ(serial.warnings, parallel.warnings);
}

}  // namespace
}  // namespace javaflow::analysis
