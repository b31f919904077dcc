// Tests for multi-method fabric management: co-residency, interleaved
// placement around busy nodes, atomic execution, unload/reload.
#include <gtest/gtest.h>

#include "bytecode/assembler.hpp"
#include "core/fabric_manager.hpp"
#include "core/javaflow.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

bytecode::Method make_loop(Program& p, const std::string& name) {
  Assembler a(p, name, "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  return a.build();
}

TEST(FabricManager, LoadsMultipleMethods) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  p.methods.push_back(make_loop(p, "m.c(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  std::vector<FabricManager::MethodId> ids;
  for (const auto& m : p.methods) {
    auto id = mgr.load(m, p.pool);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  EXPECT_EQ(mgr.resident_count(), 3u);
  EXPECT_EQ(mgr.occupied_slots(),
            static_cast<std::int32_t>(3 * p.methods[0].code.size()));
  // Methods occupy disjoint slots.
  const auto* a = mgr.find(ids[0]);
  const auto* b = mgr.find(ids[1]);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (const auto sa : a->placement.slot_of) {
    for (const auto sb : b->placement.slot_of) {
      EXPECT_NE(sa, sb);
    }
  }
}

TEST(FabricManager, SecondMethodLoadsAfterFirst) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  const auto b = mgr.load(p.methods[1], p.pool);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(mgr.find(*b)->anchor_slot,
            mgr.find(*a)->placement.max_slot + 1);
}

TEST(FabricManager, HeterogeneousCoResidencyInterleaves) {
  // Two methods with different instruction types share fabric rows: the
  // second fills node types the first skipped.
  Program p;
  // Method A: pure integer arithmetic (only arithmetic nodes).
  Assembler a(p, "m.arith()I", "test");
  a.returns(ValueType::Int);
  for (int k = 0; k < 12; ++k) a.iinc(0, 1);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());
  // Method B: storage ops (needs storage nodes that A skipped).
  Assembler b(p, "m.store(A)I", "test");
  b.args({ValueType::Ref}).returns(ValueType::Int);
  for (int k = 0; k < 4; ++k) {
    b.aload(0).iconst(k).op(Op::iaload).istore(1);
  }
  b.iload(1).op(Op::ireturn);
  p.methods.push_back(b.build());

  FabricManager mgr(sim::config_by_name("Hetero2"));
  const auto ida = mgr.load(p.methods[0], p.pool);
  const auto idb = mgr.load(p.methods[1], p.pool);
  ASSERT_TRUE(ida && idb);
  // B's first storage instruction lands inside A's span (a slot A could
  // not use) — the decentralized packing the paper describes.
  const auto* ra = mgr.find(*ida);
  const auto* rb = mgr.find(*idb);
  bool interleaved = false;
  for (const auto slot : rb->placement.slot_of) {
    if (slot < ra->placement.max_slot) interleaved = true;
  }
  EXPECT_TRUE(interleaved);
}

TEST(FabricManager, ExecuteRunsResidentMethods) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  const auto b = mgr.load(p.methods[1], p.pool);
  ASSERT_TRUE(a && b);
  const auto ra = mgr.execute(*a, sim::BranchPredictor::Scenario::BP1);
  const auto rb = mgr.execute(*b, sim::BranchPredictor::Scenario::BP1);
  ASSERT_TRUE(ra && rb);
  EXPECT_TRUE(ra->completed);
  EXPECT_TRUE(rb->completed);
  // The second resident sits deeper in the chain: the token bundle pays
  // more serial hops to reach it.
  EXPECT_GE(rb->ticks, ra->ticks);
}

TEST(FabricManager, UnloadFreesSlotsForReload) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(a.has_value());
  const std::int32_t before = mgr.occupied_slots();
  ASSERT_TRUE(mgr.unload(*a));
  EXPECT_EQ(mgr.occupied_slots(), 0);
  EXPECT_EQ(mgr.find(*a), nullptr);
  // Reload lands at the start again.
  const auto b = mgr.load(p.methods[1], p.pool);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(mgr.find(*b)->anchor_slot, 0);
  EXPECT_EQ(mgr.occupied_slots(), before);
}

TEST(FabricManager, UnloadUnknownIdFails) {
  FabricManager mgr(sim::config_by_name("Compact2"));
  EXPECT_FALSE(mgr.unload(42));
}

TEST(FabricManager, ExecuteUnknownIdFails) {
  FabricManager mgr(sim::config_by_name("Compact2"));
  EXPECT_FALSE(mgr.execute(42, sim::BranchPredictor::Scenario::BP1)
                   .has_value());
}

TEST(FabricManager, CapacityExhaustionRejectsLoad) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.capacity = static_cast<int>(p.methods[0].code.size()) + 2;
  FabricManager mgr(cfg);
  ASSERT_TRUE(mgr.load(p.methods[0], p.pool).has_value());
  EXPECT_FALSE(mgr.load(p.methods[1], p.pool).has_value());
  // The failed load must not leak occupancy.
  EXPECT_EQ(mgr.occupied_slots(),
            static_cast<std::int32_t>(p.methods[0].code.size()));
}

TEST(FabricManager, SuperpositionOfKernels) {
  // Chapter 8: "the overall Instructions per Cycle for the system would
  // be the sum of the individual Instructions per Cycle for each
  // method." Load several kernels simultaneously; each still executes
  // with a per-method IPC close to its solo IPC.
  workloads::CorpusOptions opt;
  opt.total_methods = 0;
  workloads::Corpus corpus = workloads::make_corpus(opt);
  const char* names[] = {
      "scimark.utils.Random.nextDouble()D",
      "spec.benchmarks.compress.Compressor.output(I)V",
      "java.lang.String.compareTo(AA)I",
  };
  FabricManager mgr(sim::config_by_name("Hetero2"));
  JavaFlowMachine solo(sim::config_by_name("Hetero2"));
  double aggregate = 0.0, solo_sum = 0.0;
  for (const char* name : names) {
    const bytecode::Method* m = corpus.program.find(name);
    ASSERT_NE(m, nullptr) << name;
    const auto id = mgr.load(*m, corpus.program.pool);
    ASSERT_TRUE(id.has_value()) << name;
    const auto co = mgr.execute(*id, sim::BranchPredictor::Scenario::BP1);
    ASSERT_TRUE(co && co->completed) << name;
    aggregate += co->ipc();
    const DeployedMethod d = solo.deploy(*m, corpus.program.pool);
    solo_sum += solo.execute(d, sim::BranchPredictor::Scenario::BP1).ipc();
  }
  // Co-residency costs a little (methods sit deeper in the chain), but
  // the aggregate stays the sum of per-method IPCs to within ~25 %.
  EXPECT_GT(aggregate, 0.75 * solo_sum);
  EXPECT_LE(aggregate, solo_sum * 1.01);
}

TEST(FabricManager, QuiesceAndRebindCostsTwoPasses) {
  workloads::CorpusOptions opt;
  opt.total_methods = 0;
  workloads::Corpus corpus = workloads::make_corpus(opt);
  const bytecode::Method* m =
      corpus.program.find("scimark.utils.Random.nextDouble()D");
  ASSERT_NE(m, nullptr);
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto id = mgr.load(*m, corpus.program.pool);
  ASSERT_TRUE(id.has_value());
  const auto cycles = mgr.quiesce_and_rebind(*id);
  ASSERT_TRUE(cycles.has_value());
  const auto span = mgr.find(*id)->placement.max_slot -
                    mgr.find(*id)->anchor_slot + 1;
  EXPECT_GE(*cycles, 2 * span);           // two full circulations
  EXPECT_LT(*cycles, 2 * span + 64);      // plus one ring trip at most
  // The method still executes correctly afterwards.
  const auto r = mgr.execute(*id, sim::BranchPredictor::Scenario::BP1);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->completed);
}

TEST(FabricManager, QuiesceUnknownIdFails) {
  FabricManager mgr(sim::config_by_name("Compact2"));
  EXPECT_FALSE(mgr.quiesce_and_rebind(9).has_value());
}

// ---- serving-core edge paths (docs/SERVING.md) ----

// Row-aligned residencies of one method share the canonical pre-lowered
// plan: one lowering, two residents, phys_delta carrying the shift.
TEST(FabricManager, AlignedResidenciesShareCanonicalPlan) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  FabricManager mgr(cfg);
  const auto a = mgr.load(p.methods[0], p.pool, 0);
  const std::int32_t align = cfg.idus_per_node * cfg.width;
  const auto b = mgr.load(p.methods[0], p.pool, 2 * align);
  ASSERT_TRUE(a && b);
  const auto* ra = mgr.find(*a);
  const auto* rb = mgr.find(*b);
  EXPECT_TRUE(ra->plan_shared);
  EXPECT_TRUE(rb->plan_shared);
  EXPECT_EQ(ra->plan, rb->plan);  // literally the same lowering
  EXPECT_EQ(ra->phys_delta, 0);
  EXPECT_EQ(rb->phys_delta, 2 * cfg.width);
  EXPECT_EQ(mgr.plans_shared(), 2);
  EXPECT_EQ(mgr.plans_lowered(), 0);
}

// An unaligned packing (greedy, right behind the first resident) cannot
// reuse the canonical plan and pays a dedicated lowering.
TEST(FabricManager, UnalignedPackingGetsDedicatedPlan) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  const auto b = mgr.load(p.methods[1], p.pool);  // anchor mid-row
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(mgr.find(*a)->plan_shared);
  EXPECT_FALSE(mgr.find(*b)->plan_shared);
  EXPECT_EQ(mgr.find(*b)->phys_delta, 0);
  EXPECT_EQ(mgr.plans_lowered(), 1);
  // Both paths still execute to completion with identical results on
  // re-execution (the persistent engine's caches are behavior-neutral).
  const auto r1 = mgr.execute(*b, sim::BranchPredictor::Scenario::BP1);
  const auto r2 = mgr.execute(*b, sim::BranchPredictor::Scenario::BP1);
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(*r1, *r2);
}

// The begin/end lease enforces §4.3 exactly like execute() does:
// re-entry, unload, quiesce, and execute are all rejected while leased.
TEST(FabricManager, ExecuteLeaseBlocksConflictingOperations) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto id = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(id.has_value());
  const FabricManager::Resident* r = mgr.begin_execute(*id);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(r->plan, nullptr);
  EXPECT_TRUE(r->plan->fits());
  EXPECT_EQ(mgr.begin_execute(*id), nullptr);  // Anchor busy
  EXPECT_FALSE(mgr.unload(*id));
  EXPECT_FALSE(mgr.quiesce_and_rebind(*id).has_value());
  EXPECT_FALSE(mgr.execute(*id, sim::BranchPredictor::Scenario::BP1)
                   .has_value());
  mgr.end_execute(*id);
  EXPECT_TRUE(mgr.unload(*id));
}

// Loading proceeds around a busy resident: the CMD_LOAD_INSTRUCTION
// stream passes through executing nodes (§6.2).
TEST(FabricManager, LoadsAroundBusyResident) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(a.has_value());
  ASSERT_NE(mgr.begin_execute(*a), nullptr);
  const auto b = mgr.load(p.methods[1], p.pool);
  ASSERT_TRUE(b.has_value());
  // Disjoint slots despite the lease.
  for (const auto sa : mgr.find(*a)->placement.slot_of) {
    for (const auto sb : mgr.find(*b)->placement.slot_of) {
      EXPECT_NE(sa, sb);
    }
  }
  mgr.end_execute(*a);
}

// Canonical plans survive unload: cycling a method through the fabric
// re-shares the original lowering instead of lowering again.
TEST(FabricManager, CanonicalPlanSurvivesUnloadCycle) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto a = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(a.has_value());
  const sim::ExecPlan* first = mgr.find(*a)->plan;
  ASSERT_TRUE(mgr.unload(*a));
  const auto b = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(mgr.find(*b)->plan, first);
  EXPECT_EQ(mgr.plans_shared(), 2);
  EXPECT_EQ(mgr.plans_lowered(), 0);
}

// canonical_span reports the fresh-fabric footprint first_free_row()
// must find.
TEST(FabricManager, CanonicalSpanMatchesFreshLoad) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  FabricManager mgr(sim::config_by_name("Compact2"));
  const auto span = mgr.canonical_span(p.methods[0], p.pool);
  ASSERT_TRUE(span.has_value());
  const auto id = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*span, mgr.find(*id)->placement.max_slot + 1);
  // A method that cannot fit even on an empty fabric has no span.
  sim::MachineConfig tiny = sim::config_by_name("Compact2");
  tiny.capacity = 2;
  FabricManager small(tiny);
  EXPECT_FALSE(small.canonical_span(p.methods[0], p.pool).has_value());
}

// first_free_row() steps a row of idus_per_node × width slots at a time
// and returns the lowest row start whose rows, as many as `span` slots
// touch, are all free, or nullopt when no row starts such a run; a load
// there shares the canonical plan.
TEST(FabricManager, FirstFreeRowFindsTheLowestAlignedGap) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.idus_per_node = 2;
  const std::int32_t row = cfg.idus_per_node * cfg.width;  // 20 slots
  cfg.capacity = 4 * row;
  FabricManager mgr(cfg);
  const auto span = mgr.canonical_span(p.methods[0], p.pool);
  ASSERT_TRUE(span.has_value());
  // A step of `width` slots, half a row, would find a gap inside row 0.
  ASSERT_LE(*span, cfg.width);
  EXPECT_EQ(mgr.first_free_row(*span), std::optional<std::int32_t>(0));

  const auto a = mgr.load(p.methods[0], p.pool);
  ASSERT_TRUE(a.has_value());
  // Not width, not *span.
  EXPECT_EQ(mgr.first_free_row(*span), std::optional<std::int32_t>(row));
  // A resident packed mid-row blocks the whole row, although the span
  // would fit in the free slots ahead of it.
  ASSERT_TRUE(mgr.load(p.methods[1], p.pool, row + cfg.width).has_value());
  EXPECT_EQ(mgr.first_free_row(*span), std::optional<std::int32_t>(2 * row));

  const auto c = mgr.load(p.methods[0], p.pool, *mgr.first_free_row(*span));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(mgr.find(*c)->anchor_slot, 2 * row);
  EXPECT_TRUE(mgr.find(*c)->plan_shared);
  EXPECT_EQ(mgr.find(*c)->plan, mgr.find(*a)->plan);
  EXPECT_EQ(mgr.find(*c)->phys_delta, 2 * cfg.width);

  ASSERT_TRUE(mgr.load(p.methods[0], p.pool, 3 * row).has_value());
  EXPECT_FALSE(mgr.first_free_row(*span).has_value());  // every row taken
  ASSERT_TRUE(mgr.unload(*c));
  EXPECT_EQ(mgr.first_free_row(*span), std::optional<std::int32_t>(2 * row));
}

// The search steps by whole rows that keep the layout's slot types in
// place. On a 12-wide heterogeneous fabric the 10-slot pattern repeats
// every 60 slots (five rows), so the second resident goes there, not to
// row 4, where the canonical layout would not fit the slot types.
TEST(FabricManager, FirstFreeRowKeepsTheSlotPattern) {
  Program p;
  p.methods.push_back(make_loop(p, "m.a(I)I"));
  p.methods.push_back(make_loop(p, "m.b(I)I"));
  sim::MachineConfig cfg = sim::config_by_name("Hetero2");
  cfg.width = 12;
  FabricManager mgr(cfg);
  const auto span = mgr.canonical_span(p.methods[0], p.pool);
  ASSERT_TRUE(span.has_value());
  ASSERT_LE(*span, 48);  // rows 0-3 at most
  const auto a = mgr.load(p.methods[0], p.pool, *mgr.first_free_row(*span));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(mgr.first_free_row(*span), std::optional<std::int32_t>(60));
  const auto b = mgr.load(p.methods[1], p.pool, 60);
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(mgr.find(*b)->plan_shared);
  EXPECT_EQ(mgr.find(*b)->phys_delta, 60);
  EXPECT_EQ(mgr.plans_lowered(), 0);
}

}  // namespace
}  // namespace javaflow
