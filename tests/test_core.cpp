// Tests for the public JavaFlowMachine façade.
#include <gtest/gtest.h>

#include "core/javaflow.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

bytecode::Method sample(Program& p) {
  Assembler a(p, "demo.sum(I)I", "demo");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.iconst(0).istore(1);
  a.goto_(test);
  a.bind(body);
  a.iload(1).iload(0).op(Op::iadd).istore(1);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(1).op(Op::ireturn);
  return a.build();
}

TEST(JavaFlowMachine, DeployThenExecute) {
  Program p;
  const auto m = sample(p);
  JavaFlowMachine machine(sim::config_by_name("Hetero2"));
  const DeployedMethod d = machine.deploy(m, p.pool);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.placement.fits);
  EXPECT_GT(d.resolution.total_dflows, 0);
  EXPECT_EQ(d.resolution.back_merges, 0);

  const sim::RunMetrics r =
      machine.execute(d, sim::BranchPredictor::Scenario::BP1);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.ipc(), 0.0);
}

TEST(JavaFlowMachine, SameMethodAcrossConfigs) {
  Program p;
  const auto m = sample(p);
  double baseline_ipc = 0.0;
  for (const auto& cfg : sim::table15_configs()) {
    JavaFlowMachine machine(cfg);
    const DeployedMethod d = machine.deploy(m, p.pool);
    ASSERT_TRUE(d.ok()) << cfg.name;
    const auto r = machine.execute(d, sim::BranchPredictor::Scenario::BP2);
    ASSERT_TRUE(r.completed) << cfg.name;
    if (cfg.name == "Baseline") {
      baseline_ipc = r.ipc();
    } else {
      EXPECT_LE(r.ipc(), baseline_ipc) << cfg.name;
    }
  }
}

TEST(JavaFlowMachine, ExecuteWithoutDeployThrows) {
  JavaFlowMachine machine(sim::config_by_name("Baseline"));
  DeployedMethod empty;
  EXPECT_THROW(machine.execute(empty, sim::BranchPredictor::Scenario::BP1),
               std::runtime_error);
}

TEST(JavaFlowMachine, CapacityMissSurfacesInDeploy) {
  Program p;
  Assembler a(p, "demo.big()I", "demo");
  a.returns(ValueType::Int);
  for (int k = 0; k < 2000; ++k) a.iinc(0, 1);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  sim::MachineConfig cfg = sim::config_by_name("Hetero2");
  cfg.capacity = 64;
  JavaFlowMachine machine(cfg);
  const DeployedMethod d = machine.deploy(m, p.pool);
  EXPECT_FALSE(d.ok());
}

TEST(JavaFlowMachine, ExternalPredictorIsHonored) {
  Program p;
  const auto m = sample(p);
  JavaFlowMachine machine(sim::config_by_name("Compact2"));
  const DeployedMethod d = machine.deploy(m, p.pool);
  ASSERT_TRUE(d.ok());
  sim::BranchPredictor trace(sim::BranchPredictor::Scenario::Trace);
  // No fed outcomes: the latch falls through immediately — the loop body
  // never fires.
  const auto r = machine.execute(d, trace);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.coverage(), 1.0);
}

// An in-place edit keeps the method's address, code size and name; the
// same machine must still run it as edited, like a fresh machine does.
// fadd costs more than iadd (Table 17), so the loop gets slower.
TEST(JavaFlowMachine, InPlaceEditRunsAsEdited) {
  Program p;
  bytecode::Method m = sample(p);
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const auto bp1 = sim::BranchPredictor::Scenario::BP1;
  JavaFlowMachine machine(cfg);
  const sim::RunMetrics before =
      machine.execute(machine.deploy(m, p.pool), bp1);

  for (bytecode::Instruction& inst : m.code) {
    if (inst.op == Op::iadd) inst.op = Op::fadd;
  }
  const sim::RunMetrics after =
      machine.execute(machine.deploy(m, p.pool), bp1);
  JavaFlowMachine fresh(cfg);
  EXPECT_EQ(after, fresh.execute(fresh.deploy(m, p.pool), bp1));
  EXPECT_GT(after.ticks, before.ticks);
}

}  // namespace
}  // namespace javaflow
