// Tests for the on-chip network models: the serial chain as the lowered
// plan prices it, the mesh routing model, the ring service times and
// blocking rules as the engine applies them, and the network command
// names.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>

#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "net/mesh_network.hpp"
#include "net/message.hpp"
#include "net/ring_network.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"

namespace javaflow::net {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// Straight-line code of 2 * adds + 2 instructions; Compact places it on
// the chain in instruction order.
bytecode::Method chain(Program& p, int adds) {
  Assembler a(p, "net.chain()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1);
  for (int i = 0; i < adds; ++i) a.iconst(1).op(Op::iadd);
  a.op(Op::ireturn);
  return a.build();
}

sim::ExecPlan lower(const Program& p, const bytecode::Method& m,
                    const sim::MachineConfig& config) {
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  return sim::ExecPlanBuilder().build(m, graph, nullptr, config);
}

std::size_t index(RingService s) { return static_cast<std::size_t>(s); }

// The serial chain's hop model is ExecPlan::serial_ticks_between, which
// the engine and the bound analyzer both read.
TEST(SerialNetwork, HopsAreChainDistance) {
  Program p;
  const bytecode::Method m = chain(p, 5);  // 12 instructions
  const sim::ExecPlan plan = lower(p, m, sim::config_by_name("Compact2"));
  ASSERT_TRUE(plan.fits());
  ASSERT_EQ(plan.node_count(), 12);
  for (std::int32_t i = 0; i < plan.node_count(); ++i) {
    ASSERT_EQ(plan.phys()[i], i);
  }
  EXPECT_EQ(plan.hop_ticks(), 1);
  EXPECT_EQ(plan.serial_ticks_between(0, 5), 5);
  EXPECT_EQ(plan.serial_ticks_between(7, 2), 5);  // reverse network
  EXPECT_EQ(plan.serial_ticks_between(2, 7), 5);
  EXPECT_EQ(plan.serial_ticks_between(4, 4), 1);  // never free on a chain
  // The bundle anchor sits one hop below slot 0.
  EXPECT_EQ(plan.serial_ticks_between(-1, 0), 1);
  EXPECT_EQ(plan.serial_ticks_between(-1, 11), 12);
}

TEST(SerialNetwork, CollapsedTransitIsFree) {
  Program p;
  const bytecode::Method m = chain(p, 25);  // 52 instructions
  const sim::ExecPlan collapsed =
      lower(p, m, sim::config_by_name("Baseline"));
  const sim::ExecPlan compact = lower(p, m, sim::config_by_name("Compact2"));
  ASSERT_TRUE(collapsed.fits());
  ASSERT_TRUE(compact.fits());
  ASSERT_TRUE(collapsed.collapsed());
  EXPECT_EQ(collapsed.serial_ticks_between(0, 50), 0);
  EXPECT_EQ(collapsed.serial_ticks_between(-1, 50), 0);
  EXPECT_EQ(compact.serial_ticks_between(0, 50), 50);
}

TEST(MeshNetwork, SerpentineCoordinates) {
  MeshNetwork m(10);
  // Row 0 runs left-to-right, row 1 right-to-left.
  EXPECT_EQ(m.coord_of(0).x, 0);
  EXPECT_EQ(m.coord_of(0).y, 0);
  EXPECT_EQ(m.coord_of(9).x, 9);
  EXPECT_EQ(m.coord_of(10).x, 9);  // serpentine turn
  EXPECT_EQ(m.coord_of(10).y, 1);
  EXPECT_EQ(m.coord_of(19).x, 0);
  EXPECT_EQ(m.coord_of(20).x, 0);
  EXPECT_EQ(m.coord_of(20).y, 2);
}

TEST(MeshNetwork, AdjacentChainSlotsAreAdjacentInMesh) {
  // The property the serpentine layout exists for: linear neighbours stay
  // one mesh hop apart, including across row turns.
  MeshNetwork m(10);
  for (int slot = 0; slot < 99; ++slot) {
    EXPECT_EQ(m.distance(slot, slot + 1), 1) << "slot " << slot;
  }
}

TEST(MeshNetwork, ManhattanDistance) {
  MeshNetwork m(10);
  // Slot 0 is (0,0); slot 25 is row 2 (left-to-right), x=5.
  EXPECT_EQ(m.coord_of(25).x, 5);
  EXPECT_EQ(m.coord_of(25).y, 2);
  EXPECT_EQ(m.distance(0, 25), 7);
  // Self-transfer still crosses the local router.
  EXPECT_EQ(m.distance(33, 33), 1);
}

TEST(MeshNetwork, CollapsedDistanceIsOne) {
  MeshNetwork m(10);
  EXPECT_EQ(m.transit_mesh_cycles(0, 95, /*collapsed=*/true), 1);
  EXPECT_GT(m.transit_mesh_cycles(0, 95, /*collapsed=*/false), 10);
}

TEST(RingNetwork, LatenciesAndBlocking) {
  // The default service times (DESIGN.md): a GPP round trip outlasts a
  // memory read, which itself costs at least one mesh cycle.
  const RingLatencies ring;
  EXPECT_GT(ring.memory_read, 0);
  EXPECT_GT(ring.gpp_service, ring.memory_read);

  // One array read, one call and one array store. Reads and GPP services
  // stall the node until the reply returns; the write is posted (§6.3
  // Storage Operations), so no reply is ever traced for it.
  Program p;
  Assembler a(p, "net.ring(A)V", "test");
  a.args({ValueType::Ref}).returns(ValueType::Void);
  a.aload(0).iconst(0);
  a.aload(0).iconst(1).op(Op::iaload);
  a.invokestatic("lib.f(I)I", 1, ValueType::Int);
  a.op(Op::iastore);
  a.op(Op::return_);
  const bytecode::Method m = a.build();

  obs::EventTracer tracer;
  sim::EngineOptions options;
  options.tracer = &tracer;
  sim::Engine engine(sim::config_by_name("Compact2"), options);
  sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  const sim::RunMetrics r = engine.run(m, graph, predictor);
  ASSERT_TRUE(r.completed);

  std::array<int, obs::MetricsRegistry::kNumRingServices> started{};
  std::array<int, obs::MetricsRegistry::kNumRingServices> completed{};
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == obs::TraceEventKind::ServiceStart) ++started[e.aux];
    if (e.kind == obs::TraceEventKind::ServiceComplete) ++completed[e.aux];
  }
  for (const RingService s : {RingService::MemoryRead,
                              RingService::GppService,
                              RingService::MemoryWrite}) {
    EXPECT_EQ(started[index(s)], 1) << ring_service_name(s);
  }
  EXPECT_EQ(completed[index(RingService::MemoryRead)], 1);
  EXPECT_EQ(completed[index(RingService::GppService)], 1);
  EXPECT_EQ(completed[index(RingService::MemoryWrite)], 0);
}

TEST(RingNetwork, CountsRequests) {
  // Two array reads and one call: the registry counts each ring request
  // once, by service.
  Program p;
  Assembler a(p, "net.reads(A)I", "test");
  a.args({ValueType::Ref}).returns(ValueType::Int);
  a.aload(0).iconst(0).op(Op::iaload);
  a.aload(0).iconst(1).op(Op::iaload);
  a.op(Op::iadd);
  a.invokestatic("lib.f(I)I", 1, ValueType::Int);
  a.op(Op::ireturn);
  const bytecode::Method m = a.build();

  obs::MetricsRegistry registry;
  sim::EngineOptions options;
  options.metrics = &registry;
  sim::Engine engine(sim::config_by_name("Compact2"), options);
  sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  const sim::RunMetrics r = engine.run(m, graph, predictor);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(registry.ring_requests[index(RingService::MemoryRead)], 2u);
  EXPECT_EQ(registry.ring_requests[index(RingService::GppService)], 1u);
  EXPECT_EQ(registry.ring_requests[index(RingService::MemoryWrite)], 0u);
}

TEST(Messages, CommandNamesMatchFigure14) {
  EXPECT_EQ(command_name(Command::LoadInstruction), "CMD_LOAD_INSTRUCTION");
  EXPECT_EQ(command_name(Command::SendAddressesDown),
            "CMD_SEND_ADDRESSES_DOWN");
  EXPECT_EQ(command_name(Command::SendNeedsUp), "CMD_SEND_NEEDS_UP");
  EXPECT_EQ(command_name(Command::HeadToken), "HEAD_TOKEN");
  EXPECT_EQ(command_name(Command::TailToken), "TAIL_TOKEN");
  EXPECT_EQ(command_name(Command::QuieseToken), "QUIESE_TOKEN");
}

}  // namespace
}  // namespace javaflow::net
