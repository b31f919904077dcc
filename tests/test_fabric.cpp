// Tests for fabric layouts and the greedy method loader (Figure 20,
// Table 19 ratios).
#include <gtest/gtest.h>

#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"
#include "sim/config.hpp"
#include "sim/plan.hpp"

namespace javaflow::fabric {
namespace {

using bytecode::Assembler;
using bytecode::NodeType;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

Fabric make(LayoutKind layout, std::int32_t capacity = 10000) {
  FabricOptions opt;
  opt.layout = layout;
  opt.capacity = capacity;
  return Fabric(opt);
}

// Mixed-group method: locals, arithmetic, float, storage, control.
bytecode::Method mixed_method(Program& p, int repeats) {
  Assembler a(p, "t.mixed(IA)I", "test");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  for (int k = 0; k < repeats; ++k) {
    a.iload(0).iconst(1).op(Op::iadd).istore(0);        // arithmetic
    a.aload(1).iload(0).op(Op::iaload).istore(0);       // storage
    a.iload(0).op(Op::i2d).dconst(0.5).op(Op::dmul);    // float
    a.op(Op::d2i).istore(0);
    auto skip = a.new_label();
    a.iload(0).ifle(skip);                              // control
    a.iinc(0, 1);
    a.bind(skip);
  }
  a.iload(0).op(Op::ireturn);
  return a.build();
}

TEST(FabricLayout, CompactAcceptsEverything) {
  const Fabric f = make(LayoutKind::Compact);
  for (int slot = 0; slot < 100; ++slot) {
    for (NodeType t : {NodeType::Arithmetic, NodeType::FloatingPoint,
                       NodeType::Storage, NodeType::Control}) {
      EXPECT_TRUE(f.slot_accepts(slot, t));
    }
  }
}

TEST(FabricLayout, SparseAlternatesBlanks) {
  const Fabric f = make(LayoutKind::Sparse);
  EXPECT_TRUE(f.slot_accepts(0, NodeType::Arithmetic));
  EXPECT_FALSE(f.slot_accepts(1, NodeType::Arithmetic));
  EXPECT_TRUE(f.slot_accepts(2, NodeType::Storage));
  EXPECT_EQ(f.slot_type(3), NodeType::Blank);
}

TEST(FabricLayout, HeterogeneousPatternMatchesFigure26Mix) {
  const Fabric f = make(LayoutKind::Heterogeneous);
  int counts[4] = {0, 0, 0, 0};
  for (int slot = 0; slot < 10; ++slot) {
    switch (f.slot_type(slot)) {
      case NodeType::Arithmetic: ++counts[0]; break;
      case NodeType::FloatingPoint: ++counts[1]; break;
      case NodeType::Storage: ++counts[2]; break;
      case NodeType::Control: ++counts[3]; break;
      default: FAIL() << "unexpected node type";
    }
  }
  EXPECT_EQ(counts[0], 6);  // 6 arithmetic
  EXPECT_EQ(counts[1], 1);  // 1 floating point
  EXPECT_EQ(counts[2], 2);  // 2 storage
  EXPECT_EQ(counts[3], 1);  // 1 control
}

TEST(FabricLayout, HeterogeneousOnlyAcceptsMatchingType) {
  const Fabric f = make(LayoutKind::Heterogeneous);
  for (int slot = 0; slot < 40; ++slot) {
    const NodeType t = f.slot_type(slot);
    for (NodeType want : {NodeType::Arithmetic, NodeType::FloatingPoint,
                          NodeType::Storage, NodeType::Control}) {
      EXPECT_EQ(f.slot_accepts(slot, want), t == want);
    }
  }
}

TEST(Loader, CompactPlacementIsDense) {
  Program p;
  const auto m = mixed_method(p, 4);
  const Fabric f = make(LayoutKind::Compact);
  const Placement pl = load_method(f, m);
  ASSERT_TRUE(pl.fits);
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    EXPECT_EQ(pl.slot_of[i], static_cast<std::int32_t>(i));
  }
  EXPECT_DOUBLE_EQ(pl.nodes_per_instruction(m.code.size()), 1.0);
}

TEST(Loader, SparsePlacementUsesEveryOtherSlot) {
  Program p;
  const auto m = mixed_method(p, 4);
  const Fabric f = make(LayoutKind::Sparse);
  const Placement pl = load_method(f, m);
  ASSERT_TRUE(pl.fits);
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    EXPECT_EQ(pl.slot_of[i], static_cast<std::int32_t>(2 * i));
  }
  // Table 19: Sparse2 ratio is 2.0 (one blank per instruction).
  EXPECT_NEAR(pl.nodes_per_instruction(m.code.size()), 2.0, 0.05);
}

TEST(Loader, HeterogeneousPlacementMatchesTypes) {
  Program p;
  const auto m = mixed_method(p, 6);
  const Fabric f = make(LayoutKind::Heterogeneous);
  const Placement pl = load_method(f, m);
  ASSERT_TRUE(pl.fits);
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const NodeType want = bytecode::node_type_for(m.code[i].group());
    EXPECT_EQ(f.slot_type(pl.slot_of[i]), want) << "instruction " << i;
  }
  // Placement is strictly increasing (the greedy stream never backtracks).
  for (std::size_t i = 1; i < m.code.size(); ++i) {
    EXPECT_GT(pl.slot_of[i], pl.slot_of[i - 1]);
  }
  // The mixed method spans clearly more nodes than instructions (Table 19).
  EXPECT_GT(pl.nodes_per_instruction(m.code.size()), 1.5);
}

TEST(Loader, CapacityMissIsReported) {
  Program p;
  const auto m = mixed_method(p, 8);
  const Fabric f = make(LayoutKind::Heterogeneous, /*capacity=*/16);
  const Placement pl = load_method(f, m);
  EXPECT_FALSE(pl.fits);
}

TEST(Loader, LoadCyclesArePipelined) {
  Program p;
  const auto m = mixed_method(p, 4);
  const Fabric f = make(LayoutKind::Compact);
  const Placement pl = load_method(f, m);
  // n instructions injected 1/cycle, the last rides to max_slot.
  EXPECT_EQ(pl.load_cycles,
            static_cast<std::int64_t>(m.code.size()) + pl.max_slot + 1);
}

TEST(Fabric, SerialTicksRespectCollapsedMode) {
  // The layout alone decides what a serial hop costs: the same machine
  // with its fabric switched to Collapsed lowers to a free chain.
  Program p;
  Assembler a(p, "t.line()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1);
  for (int i = 0; i < 6; ++i) a.iconst(1).op(Op::iadd);
  a.op(Op::ireturn);
  const auto m = a.build();
  const DataflowGraph graph = build_dataflow_graph(m, p.pool);

  const sim::MachineConfig normal = sim::config_by_name("Compact2");
  sim::MachineConfig collapsed = normal;
  collapsed.layout = LayoutKind::Collapsed;
  EXPECT_FALSE(Fabric(normal.fabric_options()).collapsed());
  EXPECT_TRUE(Fabric(collapsed.fabric_options()).collapsed());

  sim::ExecPlanBuilder builder;
  const sim::ExecPlan normal_plan = builder.build(m, graph, nullptr, normal);
  const sim::ExecPlan collapsed_plan =
      builder.build(m, graph, nullptr, collapsed);
  EXPECT_EQ(normal_plan.serial_ticks_between(0, 12), 12);
  EXPECT_EQ(collapsed_plan.serial_ticks_between(0, 12), 0);
}

TEST(Fabric, LayoutNames) {
  EXPECT_EQ(layout_name(LayoutKind::Collapsed), "Collapsed");
  EXPECT_EQ(layout_name(LayoutKind::Compact), "Compact");
  EXPECT_EQ(layout_name(LayoutKind::Sparse), "Sparse");
  EXPECT_EQ(layout_name(LayoutKind::Heterogeneous), "Heterogeneous");
}

}  // namespace
}  // namespace javaflow::fabric
