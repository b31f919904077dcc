// Multi-tenant serving core (docs/SERVING.md).
//
// The contract under test, in three layers:
//   * sim::MultiEngine — a single residency must reproduce Engine::run
//     bit for bit (RunMetrics field for field, also when events spill
//     past the calendar ring or the tick budget cuts the run), any
//     row-aligned shifted residency must match modulo its slot offset,
//     and co-resident methods must genuinely overlap (ticks_res_2plus >
//     0) while every completion stays deterministic; recycling a
//     finished residency's table row and lane window must not change
//     any result, and lane memory must stay flat over a long run;
//   * core::FabricManager — plan sharing across aligned residencies and
//     the persistent-engine execute path (tests/test_fabric_manager.cpp
//     holds the load/unload/GC edge cases);
//   * serve::serve — seeded request streams, admission queueing,
//     LRU eviction, latency percentiles, and a bit-stable report digest
//     across repeated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/event_tracer.hpp"
#include "serve/request_stream.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using sim::BranchPredictor;
using sim::ExecPlan;
using sim::ExecPlanBuilder;
using sim::MultiEngine;
using sim::RunMetrics;

// A loop over an array load: backward transfer, TAIL replay, memory
// ordering, mesh traffic — the full §6.3 event mix.
Program loop_program() {
  Program p;
  Assembler a(p, "serve.loop(IA)I", "serve");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.aload(1).iload(0).op(Op::iaload).istore(0);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());
  return p;
}

const workloads::Corpus& shared_corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

RunMetrics single_run(const sim::MachineConfig& cfg,
                      const bytecode::Method& m, const ExecPlan& plan,
                      BranchPredictor::Scenario scenario) {
  sim::Engine engine(cfg);
  BranchPredictor predictor(scenario);
  return engine.run(m, plan, predictor);
}

RunMetrics multi_run(const sim::MachineConfig& cfg,
                     const bytecode::Method& m, const ExecPlan& plan,
                     std::int32_t phys_delta,
                     BranchPredictor::Scenario scenario,
                     std::int64_t max_ticks = 4'000'000) {  // EngineOptions'
  sim::MultiEngineOptions options;
  options.max_ticks = max_ticks;
  MultiEngine engine(cfg, options);
  const sim::ResidentId id =
      engine.admit(m, plan, phys_delta, scenario, /*start_tick=*/0);
  EXPECT_GE(id, 0);
  while (engine.advance().has_value()) {
  }
  const sim::ResidentOutcome* out = engine.outcome(id);
  EXPECT_NE(out, nullptr);
  return out->metrics;
}

// ---- single-resident parity ----

// One residency at phys_delta 0 is the single-method engine: every
// RunMetrics field must agree, on every Table 15 config and scenario.
TEST(MultiEngineParity, SingleResidentMatchesEngineOnAllConfigs) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                BranchPredictor::Scenario::BP2}) {
      const RunMetrics ref = single_run(cfg, p.methods[0], plan, scenario);
      const RunMetrics got =
          multi_run(cfg, p.methods[0], plan, 0, scenario);
      ASSERT_EQ(got, ref) << cfg.name;
    }
  }
}

// The same parity over a real corpus slice: every method whose index is
// a multiple of the stride, on two structurally different configs.
TEST(MultiEngineParity, SingleResidentMatchesEngineOnCorpusStride) {
  const workloads::Corpus& corpus = shared_corpus();
  std::vector<sim::MachineConfig> configs;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    if (cfg.name == "Compact2" || cfg.name == "Hetero2") {
      configs.push_back(cfg);
    }
  }
  ASSERT_EQ(configs.size(), 2u);
  ExecPlanBuilder builder;
  for (const sim::MachineConfig& cfg : configs) {
    for (std::size_t i = 0; i < corpus.program.methods.size(); i += 64) {
      const bytecode::Method& m = corpus.program.methods[i];
      const fabric::DataflowGraph graph =
          fabric::build_dataflow_graph(m, corpus.program.pool);
      ExecPlan plan;
      builder.build_into(plan, m, graph, nullptr, cfg);
      if (!plan.fits()) continue;
      for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                  BranchPredictor::Scenario::BP2}) {
        const RunMetrics ref = single_run(cfg, m, plan, scenario);
        const RunMetrics got = multi_run(cfg, m, plan, 0, scenario);
        ASSERT_EQ(got, ref) << cfg.name << " " << m.name;
      }
    }
  }
}

// A row-aligned shift is invisible to the timing model: serial hops,
// anchor arithmetic, and (by the serpentine x-mirror argument in
// docs/SERVING.md) all Manhattan mesh distances are preserved, so the
// only field allowed to move is max_slot.
TEST(MultiEngineParity, RowAlignedShiftOnlyMovesMaxSlot) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    const std::int32_t phys_delta = 2 * cfg.width;  // two rows down
    RunMetrics ref =
        multi_run(cfg, p.methods[0], plan, 0, BranchPredictor::Scenario::BP1);
    const RunMetrics got = multi_run(cfg, p.methods[0], plan, phys_delta,
                                     BranchPredictor::Scenario::BP1);
    ASSERT_EQ(got.max_slot,
              ref.max_slot + phys_delta * std::max(cfg.idus_per_node, 1))
        << cfg.name;
    ref.max_slot = got.max_slot;
    ASSERT_EQ(got, ref) << cfg.name;
  }
}

// ---- calendar spill and tick budget ----

// The loop on all three kernel instantiations — plain solo, instrumented
// solo (a tracer attached) and shared — which must agree field for
// field; tests/test_golden.cpp pins the instrumented values.
RunMetrics run_on_every_kernel(const sim::MachineConfig& cfg,
                               std::int64_t max_ticks) {
  const Program p = loop_program();
  const bytecode::Method& m = p.methods[0];
  const ExecPlan plan = ExecPlanBuilder().build(
      m, fabric::build_dataflow_graph(m, p.pool), nullptr, cfg);
  sim::EngineOptions options;
  options.max_ticks = max_ticks;
  BranchPredictor plain_predictor(BranchPredictor::Scenario::BP1);
  const RunMetrics plain =
      sim::Engine(cfg, options).run(m, plan, plain_predictor);
  obs::EventTracer tracer;
  options.tracer = &tracer;
  BranchPredictor traced_predictor(BranchPredictor::Scenario::BP1);
  EXPECT_EQ(sim::Engine(cfg, options).run(m, plan, traced_predictor), plain)
      << cfg.name << " instrumented, budget " << max_ticks;
  EXPECT_FALSE(tracer.events().empty()) << cfg.name;
  EXPECT_EQ(multi_run(cfg, m, plan, 0, BranchPredictor::Scenario::BP1,
                      max_ticks),
            plain)
      << cfg.name << " shared, budget " << max_ticks;
  return plain;
}

TEST(SchedulerOverflow, EventsBeyondBucketHorizonStayOrdered) {
  // Ring latencies far past the 4096-bucket ceiling force every
  // MemoryRead ServiceDone (and every GPP service) through the
  // calendar's overflow spill.
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  cfg.ring.gpp_service = 250'000;
  const RunMetrics plain = run_on_every_kernel(cfg, 4'000'000);
  EXPECT_TRUE(plain.completed);
  EXPECT_GT(plain.ticks, 100'000);  // the slow ring dominated the run
}

TEST(SchedulerOverflow, MaxTicksAbortPathIsIdentical) {
  for (const char* name : {"Baseline", "Compact10", "Compact2"}) {
    EXPECT_TRUE(run_on_every_kernel(sim::config_by_name(name), 120).timed_out)
        << name;
  }
}

TEST(SchedulerOverflow, SlowRingAbortCombinesSpillAndTimeout) {
  // The budget runs out while the only pending events sit in the spill:
  // the cursor must jump into the spill and abort at the same tick.
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  EXPECT_TRUE(run_on_every_kernel(cfg, 50'000).timed_out);
}

// Every Table 15 config, at a budget that cuts the loop early, one in
// between and one it never reaches.
TEST(SchedulerOverflow, TickBudgetsAgreeOnEveryConfig) {
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    EXPECT_TRUE(run_on_every_kernel(cfg, 50).timed_out) << cfg.name;
    run_on_every_kernel(cfg, 1'000);
    EXPECT_FALSE(run_on_every_kernel(cfg, 20'000).timed_out) << cfg.name;
  }
}

// ---- multi-tenant execution ----

// Two co-resident loops on disjoint rows genuinely overlap: some tick
// span has instructions from *distinct residencies* executing at once.
TEST(MultiEngineOverlap, CoResidentMethodsExecuteSimultaneously) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    MultiEngine engine(cfg);
    ASSERT_GE(engine.admit(p.methods[0], plan, 0,
                           BranchPredictor::Scenario::BP1, 0),
              0);
    ASSERT_GE(engine.admit(p.methods[0], plan, 2 * cfg.width,
                           BranchPredictor::Scenario::BP1, 0),
              0);
    int completions = 0;
    while (engine.advance().has_value()) ++completions;
    ASSERT_EQ(completions, 2) << cfg.name;
    const sim::MultiRunMetrics agg = engine.finish();
    EXPECT_GT(agg.ticks_res_2plus, 0) << cfg.name;
    EXPECT_GE(agg.ticks_res_1plus, agg.ticks_res_2plus) << cfg.name;
    EXPECT_GE(agg.ticks_exec_2plus, agg.ticks_res_2plus) << cfg.name;
    for (const sim::ResidentOutcome& out : agg.residents) {
      EXPECT_TRUE(out.metrics.completed) << cfg.name;
    }
  }
}

// Both residencies funnel MemRead/GPP traffic into the same four ring
// channels; a residency never waits on its own requests, so with a lone
// residency the wait is zero, and the aggregate equals the per-resident
// sum by construction.
TEST(MultiEngineOverlap, RingWaitsAppearOnlyUnderCoResidency) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  MultiEngine solo(cfg);
  solo.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  while (solo.advance().has_value()) {
  }
  const sim::MultiRunMetrics solo_agg = solo.finish();
  EXPECT_EQ(solo_agg.serial_wait_ticks, 0);
  EXPECT_EQ(solo_agg.mesh_wait_ticks, 0);
  EXPECT_EQ(solo_agg.ring_wait_ticks, 0);

  MultiEngine duo(cfg);
  duo.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  duo.admit(p.methods[0], plan, 2 * cfg.width,
            BranchPredictor::Scenario::BP1, 0);
  while (duo.advance().has_value()) {
  }
  const sim::MultiRunMetrics agg = duo.finish();
  std::int64_t serial = 0, mesh = 0, ring = 0;
  for (const sim::ResidentOutcome& out : agg.residents) {
    serial += out.serial_wait_ticks;
    mesh += out.mesh_wait_ticks;
    ring += out.ring_wait_ticks;
  }
  EXPECT_EQ(agg.serial_wait_ticks, serial);
  EXPECT_EQ(agg.mesh_wait_ticks, mesh);
  EXPECT_EQ(agg.ring_wait_ticks, ring);
  // Identical loops issuing identical ring requests at identical ticks:
  // the second residency must queue behind the first on some channel.
  EXPECT_GT(agg.ring_wait_ticks, 0);
}

// Repeated multi-tenant runs with the same admissions are bit-identical
// — outcome by outcome, aggregate by aggregate.
TEST(MultiEngineDeterminism, RepeatedRunsAreBitIdentical) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[1];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  auto run_once = [&] {
    MultiEngine engine(cfg);
    engine.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
    engine.admit(p.methods[0], plan, 2 * cfg.width,
                 BranchPredictor::Scenario::BP2, 3);
    engine.admit(p.methods[0], plan, 4 * cfg.width,
                 BranchPredictor::Scenario::BP1, 17);
    std::vector<sim::ResidentId> order;
    std::optional<sim::ResidentId> done;
    while ((done = engine.advance()).has_value()) order.push_back(*done);
    return std::make_pair(order, engine.finish());
  };
  const auto [order_a, agg_a] = run_once();
  const auto [order_b, agg_b] = run_once();
  ASSERT_EQ(order_a, order_b);
  ASSERT_EQ(agg_a.residents.size(), agg_b.residents.size());
  for (std::size_t i = 0; i < agg_a.residents.size(); ++i) {
    EXPECT_EQ(agg_a.residents[i].metrics, agg_b.residents[i].metrics) << i;
    EXPECT_EQ(agg_a.residents[i].completed_tick,
              agg_b.residents[i].completed_tick)
        << i;
  }
  EXPECT_EQ(agg_a.fabric_ticks, agg_b.fabric_ticks);
  EXPECT_EQ(agg_a.ticks_res_2plus, agg_b.ticks_res_2plus);
  EXPECT_EQ(agg_a.serial_wait_ticks, agg_b.serial_wait_ticks);
  EXPECT_EQ(agg_a.mesh_wait_ticks, agg_b.mesh_wait_ticks);
  EXPECT_EQ(agg_a.ring_wait_ticks, agg_b.ring_wait_ticks);
}

// advance(until) pauses at the requested tick; admissions interleaved
// at the pause point behave exactly like admissions made up front.
TEST(MultiEngineDeterminism, PausedAdmissionsMatchUpfrontAdmissions) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  MultiEngine upfront(cfg);
  upfront.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  upfront.admit(p.methods[0], plan, 2 * cfg.width,
                BranchPredictor::Scenario::BP1, 40);
  while (upfront.advance().has_value()) {
  }
  const sim::MultiRunMetrics ref = upfront.finish();

  MultiEngine paused(cfg);
  paused.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  // Drain strictly below tick 40, then admit the second residency as a
  // serving frontend would on request arrival.
  while (paused.advance(40).has_value()) {
  }
  EXPECT_EQ(paused.now(), 40);
  paused.admit(p.methods[0], plan, 2 * cfg.width,
               BranchPredictor::Scenario::BP1, 40);
  while (paused.advance().has_value()) {
  }
  const sim::MultiRunMetrics got = paused.finish();

  ASSERT_EQ(got.residents.size(), ref.residents.size());
  for (std::size_t i = 0; i < ref.residents.size(); ++i) {
    EXPECT_EQ(got.residents[i].metrics, ref.residents[i].metrics) << i;
  }
  EXPECT_EQ(got.ticks_res_2plus, ref.ticks_res_2plus);
}

// Events spilled past the calendar ring keep their (tick, seq) order
// across a pause: a residency admitted at the pause tick queues behind
// the spilled bundle of an earlier admission for the same tick, exactly
// as if both had been admitted up front. The two identical loops
// contend for the ring channels, so any reordering swaps which one
// waits.
TEST(MultiEngineDeterminism, SpilledEventsKeepOrderAcrossPause) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  constexpr std::int64_t kStart = 100'000;  // far past any ring: spills
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    MultiEngine upfront(cfg);
    upfront.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1,
                  kStart);
    upfront.admit(p.methods[0], plan, 2 * cfg.width,
                  BranchPredictor::Scenario::BP1, kStart);
    while (upfront.advance().has_value()) {
    }
    const sim::MultiRunMetrics ref = upfront.finish();

    MultiEngine paused(cfg);
    paused.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1,
                 kStart);
    EXPECT_FALSE(paused.advance(kStart - 10).has_value());
    EXPECT_EQ(paused.now(), kStart - 10);
    paused.admit(p.methods[0], plan, 2 * cfg.width,
                 BranchPredictor::Scenario::BP1, kStart);
    while (paused.advance().has_value()) {
    }
    const sim::MultiRunMetrics got = paused.finish();

    ASSERT_EQ(got.residents.size(), ref.residents.size());
    for (std::size_t i = 0; i < ref.residents.size(); ++i) {
      EXPECT_EQ(got.residents[i].metrics, ref.residents[i].metrics)
          << cfg.name << " " << i;
      EXPECT_EQ(got.residents[i].completed_tick,
                ref.residents[i].completed_tick)
          << cfg.name << " " << i;
      EXPECT_EQ(got.residents[i].ring_wait_ticks,
                ref.residents[i].ring_wait_ticks)
          << cfg.name << " " << i;
    }
  }
}

// The ring grows when a method with longer bounded delays is admitted,
// re-bucketing pending and spilled events in tick order. A large method
// admitted mid-run, while one loop is in flight and another's bundle
// sits in the spill, must leave every residency exactly as on an engine
// whose ring was wide before any of them arrived (widened by a
// residency parked far in the future on rows of its own, where it
// contends with nothing).
TEST(MultiEngineDeterminism, RingGrowthKeepsEventOrder) {
  Program p = loop_program();
  {
    Assembler a(p, "serve.long(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 200; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& big = p.methods[1];
  // Past the small ring's first wrap, so a pending event's old bucket
  // index is not its tick; the second loop's bundle starts beyond the
  // small window and spills.
  constexpr std::int64_t kPause = 300;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan loop_plan = ExecPlanBuilder().build(
        loop, fabric::build_dataflow_graph(loop, p.pool), nullptr, cfg);
    const ExecPlan big_plan = ExecPlanBuilder().build(
        big, fabric::build_dataflow_graph(big, p.pool), nullptr, cfg);
    ASSERT_TRUE(big_plan.fits()) << cfg.name;
    auto run = [&](bool widen_first) {
      MultiEngine engine(cfg);
      if (widen_first) {
        engine.admit(big, big_plan, 200 * cfg.width,
                     BranchPredictor::Scenario::BP1, 10'000'000);
      }
      std::vector<sim::ResidentId> ids;
      ids.push_back(engine.admit(loop, loop_plan, 0,
                                 BranchPredictor::Scenario::BP1, 0));
      ids.push_back(engine.admit(loop, loop_plan, 2 * cfg.width,
                                 BranchPredictor::Scenario::BP2,
                                 kPause + 100));
      while (engine.advance(kPause).has_value()) {
      }
      ids.push_back(engine.admit(big, big_plan, 4 * cfg.width,
                                 BranchPredictor::Scenario::BP1, kPause));
      while (engine.advance().has_value()) {
      }
      const sim::MultiRunMetrics agg = engine.finish();
      std::vector<sim::ResidentOutcome> out;
      for (const sim::ResidentId id : ids) {
        out.push_back(agg.residents[static_cast<std::size_t>(id)]);
      }
      return out;
    };
    const std::vector<sim::ResidentOutcome> grown = run(false);
    const std::vector<sim::ResidentOutcome> wide = run(true);
    ASSERT_EQ(grown.size(), wide.size());
    for (std::size_t i = 0; i < grown.size(); ++i) {
      EXPECT_TRUE(grown[i].metrics.completed) << cfg.name << " " << i;
      EXPECT_EQ(grown[i].metrics, wide[i].metrics) << cfg.name << " " << i;
      EXPECT_EQ(grown[i].completed_tick, wide[i].completed_tick)
          << cfg.name << " " << i;
      EXPECT_EQ(grown[i].serial_wait_ticks, wide[i].serial_wait_ticks)
          << cfg.name << " " << i;
      EXPECT_EQ(grown[i].mesh_wait_ticks, wide[i].mesh_wait_ticks)
          << cfg.name << " " << i;
      EXPECT_EQ(grown[i].ring_wait_ticks, wide[i].ring_wait_ticks)
          << cfg.name << " " << i;
    }
  }
}

// The tick budget times every live residency out at the first
// over-budget event, mirroring the single engine's timeout semantics.
TEST(MultiEngineTimeout, OverBudgetRunsFinalizeAsTimedOut) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
  sim::MultiEngineOptions options;
  options.max_ticks = 5;  // far below any completion
  MultiEngine engine(cfg, options);
  const sim::ResidentId id =
      engine.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  int completions = 0;
  while (engine.advance().has_value()) ++completions;
  ASSERT_EQ(completions, 1);
  const sim::ResidentOutcome* out = engine.outcome(id);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->metrics.timed_out);
  EXPECT_FALSE(out->metrics.completed);
  EXPECT_EQ(out->completed_tick, -1);
  EXPECT_TRUE(engine.idle());
}

// ---- residency recycling ----

// Methods for the recycling tests, in this order: the loop; a short
// arithmetic chain; a forward jump over 60 local increments, taken on
// the first BP1 execution, whose tokens then cross 60 serial links in
// one send each — the TAIL some ticks after the rest of the bundle,
// because an array read ahead of the jump holds it until the ring
// answers; and an array store, a posted MemoryWrite whose ring
// reservation outlasts the method.
Program recycling_program() {
  Program p = loop_program();
  {
    Assembler a(p, "serve.chain(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  {
    Assembler a(p, "serve.skip(IA)I", "serve");
    a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
    auto done = a.new_label();
    a.aload(1).iload(0).op(Op::iaload).op(Op::pop);
    a.iload(0).ifgt(done);
    for (int i = 0; i < 60; ++i) a.iinc(0, 1);
    a.bind(done);
    a.iload(0).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  {
    Assembler a(p, "serve.put(IA)I", "serve");
    a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
    a.aload(1).iload(0).iload(0).op(Op::iastore);
    a.iload(0).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  return p;
}

// A residency placed by the test: method, plan and row shift.
struct Placed {
  const bytecode::Method* method;
  const ExecPlan* plan;
  std::int32_t phys_delta;
};

// The outcome of `succ`, admitted once `pred` has finished and every
// event of it has drained or been dropped, so that `pred` is reclaimed.
// The successor takes the predecessor's table row, or, with a
// `filler`, a fresh row, because the filler takes the freed one first.
sim::ResidentOutcome successor_outcome(const sim::MachineConfig& cfg,
                                       std::int64_t max_ticks,
                                       const Placed& pred,
                                       const Placed& succ,
                                       const Placed* filler) {
  sim::MultiEngineOptions options;
  options.max_ticks = max_ticks;
  MultiEngine engine(cfg, options);
  engine.admit(*pred.method, *pred.plan, pred.phys_delta,
               BranchPredictor::Scenario::BP1, 0);
  while (engine.advance().has_value()) {
  }
  EXPECT_TRUE(engine.idle());
  if (filler != nullptr) {
    // Parked far ahead, so the successor runs, or times out, alone.
    engine.admit(*filler->method, *filler->plan, filler->phys_delta,
                 BranchPredictor::Scenario::BP1, engine.now() + 1'000'000);
  }
  const sim::ResidentId id =
      engine.admit(*succ.method, *succ.plan, succ.phys_delta,
                   BranchPredictor::Scenario::BP1, engine.now());
  while (engine.advance().has_value()) {
  }
  const sim::ResidentOutcome* out = engine.outcome(id);
  EXPECT_NE(out, nullptr);
  return out != nullptr ? *out : sim::ResidentOutcome{};
}

void expect_same_outcome(const sim::ResidentOutcome& got,
                         const sim::ResidentOutcome& want,
                         const std::string& what) {
  EXPECT_EQ(got.metrics, want.metrics) << what;
  EXPECT_EQ(got.admitted_tick, want.admitted_tick) << what;
  EXPECT_EQ(got.completed_tick, want.completed_tick) << what;
  EXPECT_EQ(got.serial_wait_ticks, want.serial_wait_ticks) << what;
  EXPECT_EQ(got.mesh_wait_ticks, want.mesh_wait_ticks) << what;
  EXPECT_EQ(got.ring_wait_ticks, want.ring_wait_ticks) << what;
}

// Transport occupancy is keyed by the ResidentId, never by the recycled
// table row, because a reservation can outlive its residency: a
// successor in the same row must queue behind it exactly as one in a
// fresh row does. A posted MemoryWrite reserves its ring channel without
// scheduling anything (a long ring.memory_write keeps it open well past
// the method's end), but only posted writes use that channel and none
// of them waits or reports a completion, so no result can show that
// case. A tick budget can: the first event past it (here, part of the
// jump's bundle arriving) times out a residency whose TAIL is still
// crossing the jump, and the links the TAIL reserved stay reserved. A
// successor injected on one of those rows must wait for the dead
// reservation.
TEST(MultiEngineRecycling, RowReuseKeepsOccupancyOwnedByResidentId) {
  const Program p = recycling_program();
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_write = 400;
  auto plan_of = [&](std::size_t i) {
    return ExecPlanBuilder().build(
        p.methods[i], fabric::build_dataflow_graph(p.methods[i], p.pool),
        nullptr, cfg);
  };
  const ExecPlan chain_plan = plan_of(1);
  const ExecPlan skip_plan = plan_of(2);
  const ExecPlan put_plan = plan_of(3);
  // Far from every other residency's rows.
  const Placed filler{&p.methods[1], &chain_plan, 100 * cfg.width};

  const Placed put{&p.methods[3], &put_plan, 0};
  expect_same_outcome(
      successor_outcome(cfg, MultiEngine::kNoLimit, put, put, nullptr),
      successor_outcome(cfg, MultiEngine::kNoLimit, put, put, &filler),
      "posted write");

  const Placed skip{&p.methods[2], &skip_plan, 0};
  int charged = 0;
  for (std::int64_t budget = 1; budget < 120; ++budget) {
    for (std::int32_t row = 1; row <= 6; ++row) {
      const Placed succ{&p.methods[1], &chain_plan, row * cfg.width};
      const sim::ResidentOutcome fresh =
          successor_outcome(cfg, budget, skip, succ, &filler);
      expect_same_outcome(successor_outcome(cfg, budget, skip, succ, nullptr),
                          fresh,
                          "budget " + std::to_string(budget) + " row " +
                              std::to_string(row));
      charged += fresh.serial_wait_ticks > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(charged, 0) << "no successor met a dead reservation";
}

// Residencies that time out together come back from advance() in
// ResidentId (admission) order, even when recycled rows put them in a
// different order in the residency table. A short chain and a longer
// loop finish first, freeing rows 0 and then 1; the next three loops
// take rows 1, 0 and a new row 2 and are all cut by the tick budget.
TEST(MultiEngineRecycling, TimedOutResidenciesReturnInAdmissionOrder) {
  const Program p = recycling_program();
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& chain = p.methods[1];
  const ExecPlan loop_plan = ExecPlanBuilder().build(
      loop, fabric::build_dataflow_graph(loop, p.pool), nullptr, cfg);
  const ExecPlan chain_plan = ExecPlanBuilder().build(
      chain, fabric::build_dataflow_graph(chain, p.pool), nullptr, cfg);
  sim::MultiEngineOptions options;
  options.max_ticks = 2'000;
  MultiEngine engine(cfg, options);
  const sim::ResidentId short_id =
      engine.admit(chain, chain_plan, 0, BranchPredictor::Scenario::BP1, 0);
  const sim::ResidentId long_id = engine.admit(
      loop, loop_plan, 2 * cfg.width, BranchPredictor::Scenario::BP1, 0);
  ASSERT_EQ(engine.advance(), std::optional<sim::ResidentId>(short_id));
  ASSERT_EQ(engine.advance(), std::optional<sim::ResidentId>(long_id));
  ASSERT_FALSE(engine.advance().has_value());
  ASSERT_TRUE(engine.idle());
  ASSERT_LT(engine.now(), options.max_ticks);
  std::vector<sim::ResidentId> admitted;
  for (std::int32_t k = 0; k < 3; ++k) {
    admitted.push_back(engine.admit(loop, loop_plan, 2 * k * cfg.width,
                                    BranchPredictor::Scenario::BP1,
                                    options.max_ticks - 5));
  }
  std::vector<sim::ResidentId> returned;
  std::optional<sim::ResidentId> done;
  while ((done = engine.advance()).has_value()) {
    EXPECT_TRUE(engine.outcome(*done)->metrics.timed_out) << *done;
    returned.push_back(*done);
  }
  EXPECT_EQ(returned, admitted);
}

// Lane memory follows the live residencies, not the admission count:
// 70,000 residencies through one engine — more than the 65,535 rows a
// calendar slot can name — leave the lane high-water mark where the
// first 1,000 left it. Each round admits a loop and a chain at the
// tick the previous round's last completion came back, with that
// round's tokens still in flight.
TEST(MultiEngineRecycling, LaneHighWaterIsFlatPastSeventyThousandResidencies) {
  const Program p = recycling_program();
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& chain = p.methods[1];
  const ExecPlan loop_plan = ExecPlanBuilder().build(
      loop, fabric::build_dataflow_graph(loop, p.pool), nullptr, cfg);
  const ExecPlan chain_plan = ExecPlanBuilder().build(
      chain, fabric::build_dataflow_graph(chain, p.pool), nullptr, cfg);
  MultiEngine engine(cfg);
  std::size_t lanes_at_1000 = 0;
  for (int round = 0; round < 35'000; ++round) {
    const auto scenario = round % 2 == 0 ? BranchPredictor::Scenario::BP1
                                         : BranchPredictor::Scenario::BP2;
    ASSERT_GE(engine.admit(loop, loop_plan, 0, scenario, engine.now()), 0);
    ASSERT_GE(engine.admit(chain, chain_plan, 2 * cfg.width, scenario,
                           engine.now()),
              0);
    for (int k = 0; k < 2; ++k) {
      const std::optional<sim::ResidentId> done = engine.advance();
      ASSERT_TRUE(done.has_value()) << "round " << round;
      ASSERT_TRUE(engine.outcome(*done)->metrics.completed)
          << "round " << round;
    }
    if (engine.resident_count() == 1'000) lanes_at_1000 = engine.lane_count();
  }
  EXPECT_EQ(engine.resident_count(), 70'000u);
  EXPECT_EQ(engine.running_count(), 0u);
  EXPECT_GT(lanes_at_1000, 0u);
  EXPECT_EQ(engine.lane_count(), lanes_at_1000);
}

// ---- request stream ----

// A five-method serving corpus: the loop plus arithmetic chains of
// increasing length, so co-resident runtimes differ.
Program serve_program() {
  Program p;
  {
    Assembler a(p, "serve.loop(IA)I", "serve");
    a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
    auto body = a.new_label(), test = a.new_label();
    a.goto_(test);
    a.bind(body);
    a.aload(1).iload(0).op(Op::iaload).istore(0);
    a.iinc(0, -1);
    a.bind(test);
    a.iload(0).ifgt(body);
    a.iload(0).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  for (int k = 1; k <= 4; ++k) {
    Assembler a(p, "serve.chain" + std::to_string(k) + "(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 3 * k; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  return p;
}

std::vector<std::int32_t> all_methods(const Program& p) {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < p.methods.size(); ++i) {
    out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

TEST(RequestStream, DeterministicSortedAndInRange) {
  serve::RequestStreamOptions opt;
  opt.seed = 42;
  opt.num_requests = 200;
  opt.mean_gap_ticks = 16;
  const auto a = serve::make_request_stream(7, opt);
  const auto b = serve::make_request_stream(7, opt);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].method_index, b[i].method_index);
    EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_GE(a[i].method_index, 0);
    EXPECT_LT(a[i].method_index, 7);
    if (i > 0) {
      EXPECT_GT(a[i].arrival_tick, a[i - 1].arrival_tick);
    }
  }
  opt.seed = 43;
  const auto c = serve::make_request_stream(7, opt);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].method_index != c[i].method_index ||
              a[i].arrival_tick != c[i].arrival_tick;
  }
  EXPECT_TRUE(differs);
}

TEST(RequestStream, HotFractionConcentratesOnHotSet) {
  serve::RequestStreamOptions opt;
  opt.num_requests = 100;
  opt.hot_fraction_256 = 256;  // every request is hot
  opt.hot_methods = 2;
  for (const serve::Request& r : serve::make_request_stream(50, opt)) {
    EXPECT_LT(r.method_index, 2);
  }
}

// The mean gap is bounded so that no gap or arrival tick of any stream
// overflows int64: outside [1, kMaxMeanGapTicks] the stream, and so
// serve(), throws; both ends of the range build.
TEST(RequestStream, MeanGapOutsideItsRangeThrows) {
  serve::RequestStreamOptions opt;
  opt.num_requests = 8;
  for (const std::int64_t bad :
       {std::int64_t{0}, serve::kMaxMeanGapTicks + 1, std::int64_t{1} << 61,
        std::int64_t{1} << 62}) {
    opt.mean_gap_ticks = bad;
    EXPECT_THROW(serve::make_request_stream(3, opt), std::invalid_argument)
        << bad;
  }
  for (const std::int64_t good : {std::int64_t{1}, serve::kMaxMeanGapTicks}) {
    opt.mean_gap_ticks = good;
    EXPECT_EQ(serve::make_request_stream(3, opt).size(), 8u) << good;
  }
  opt.mean_gap_ticks = 0;
  const Program p = serve_program();
  EXPECT_THROW(
      serve::serve(p, all_methods(p), sim::config_by_name("Compact2"), opt),
      std::invalid_argument);
}

// ---- serving frontend ----

// A single-method corpus serializes every request (§4.3), and each
// one's RunMetrics must be bit-identical to a plain Engine::run of the
// same (method, canonical plan, scenario) — full-stack N=1 parity.
TEST(FabricServe, SingleMethodServingMatchesEngineRun) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  serve::RequestStreamOptions stream;
  stream.seed = 7;
  stream.num_requests = 6;
  stream.mean_gap_ticks = 32;
  const auto requests = serve::make_request_stream(1, stream);
  for (const sim::MachineConfig& cfg :
       {sim::config_by_name("Compact2"), sim::config_by_name("Hetero2")}) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    const serve::ServeReport rep = serve::serve(p, {0}, cfg, stream);
    ASSERT_EQ(rep.requests, 6);
    ASSERT_EQ(rep.completed, 6);
    EXPECT_EQ(rep.ticks_res_2plus, 0) << "one method cannot overlap itself";
    for (const serve::RequestOutcome& o : rep.outcomes) {
      const RunMetrics ref = single_run(
          cfg, p.methods[0], plan,
          requests[static_cast<std::size_t>(o.request_id)].scenario);
      ASSERT_EQ(o.metrics, ref) << cfg.name << " req " << o.request_id;
      EXPECT_TRUE(o.plan_shared);
      EXPECT_EQ(o.latency_ticks, o.completed_tick - o.arrival_tick);
      EXPECT_GE(o.admitted_tick, o.arrival_tick);
    }
  }
}

// Distinct methods arriving faster than they finish must genuinely
// co-execute on the shared fabric.
TEST(FabricServe, HeterogeneousStreamOverlapsResidencies) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 11;
  stream.num_requests = 32;
  stream.mean_gap_ticks = 4;
  stream.hot_fraction_256 = 0;  // uniform over all five methods
  const serve::ServeReport rep =
      serve::serve(p, all_methods(p), sim::config_by_name("Compact2"), stream);
  EXPECT_EQ(rep.completed, rep.requests);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.timed_out, 0);
  EXPECT_GT(rep.ticks_res_2plus, 0);
  EXPECT_GE(rep.ticks_res_1plus, rep.ticks_res_2plus);
}

// Repeated runs produce bit-identical reports, and the digest covers
// enough state to prove it.
TEST(FabricServe, ReportIsBitIdenticalAcrossRuns) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 20141215;
  stream.num_requests = 24;
  stream.mean_gap_ticks = 8;
  const sim::MachineConfig cfg = sim::config_by_name("Hetero2");
  const serve::ServeReport a = serve::serve(p, all_methods(p), cfg, stream);
  const serve::ServeReport b = serve::serve(p, all_methods(p), cfg, stream);
  ASSERT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].metrics, b.outcomes[i].metrics) << i;
    EXPECT_EQ(a.outcomes[i].completed_tick, b.outcomes[i].completed_tick) << i;
  }
}

// A tiny fabric forces the server to recycle slots: methods are evicted
// idle-LRU and reloaded, yet every request still completes.
TEST(FabricServe, LruEvictionRecyclesTinyFabric) {
  const Program p = serve_program();
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.capacity = 30;  // room for roughly two residents at a time
  serve::RequestStreamOptions stream;
  stream.seed = 3;
  stream.num_requests = 40;
  stream.mean_gap_ticks = 2;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep = serve::serve(p, all_methods(p), cfg, stream);
  EXPECT_EQ(rep.completed, rep.requests);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_GT(rep.evictions, 0);
  EXPECT_GT(rep.loads, static_cast<std::int64_t>(p.methods.size()));
  // Every load either shared the canonical plan or paid a lowering.
  EXPECT_EQ(rep.plans_shared + rep.plans_lowered, rep.loads);
  EXPECT_GT(rep.plans_shared, 0);
}

// A method that exceeds the fabric even when empty is rejected; smaller
// methods in the same stream still complete.
TEST(FabricServe, NeverFittingMethodIsRejected) {
  Program p;
  {
    Assembler a(p, "serve.small(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  {
    Assembler a(p, "serve.huge(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 60; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.capacity = 20;
  serve::RequestStreamOptions stream;
  stream.seed = 9;
  stream.num_requests = 16;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep = serve::serve(p, {0, 1}, cfg, stream);
  EXPECT_GT(rep.rejected, 0);
  EXPECT_GT(rep.completed, 0);
  EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out, rep.requests);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.rejected, o.method_index == 1) << o.request_id;
  }
}

// serve() checks its method list before it builds the stream: an empty
// list or an index outside the program throws instead of crashing.
TEST(FabricServe, RejectsAnEmptyOrOutOfRangeMethodList) {
  const Program p = serve_program();
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  serve::RequestStreamOptions stream;
  stream.num_requests = 4;
  const auto n = static_cast<std::int32_t>(p.methods.size());
  EXPECT_THROW(serve::serve(p, {}, cfg, stream), std::invalid_argument);
  EXPECT_THROW(serve::serve(p, {0, n}, cfg, stream), std::invalid_argument);
  EXPECT_THROW(serve::serve(p, {-1}, cfg, stream), std::invalid_argument);
  EXPECT_EQ(serve::serve(p, {n - 1}, cfg, stream).completed, 4);
}

// Same-method serialization backs requests up behind a busy Anchor: the
// queue visibly deepens and the latency percentiles stay ordered.
TEST(FabricServe, QueueDepthAndLatencyPercentiles) {
  const Program p = loop_program();
  serve::RequestStreamOptions stream;
  stream.seed = 5;
  stream.num_requests = 20;
  stream.mean_gap_ticks = 1;  // burst: arrivals far outpace completions
  const serve::ServeReport rep =
      serve::serve(p, {0}, sim::config_by_name("Compact2"), stream);
  ASSERT_EQ(rep.completed, rep.requests);
  EXPECT_GE(rep.max_queue_depth, 2);
  ASSERT_GE(rep.latency_p50, 0);
  EXPECT_LE(rep.latency_p50, rep.latency_p95);
  EXPECT_LE(rep.latency_p95, rep.latency_p99);
  EXPECT_LE(rep.latency_p99, rep.latency_max);
  EXPECT_GT(rep.latency_mean_x1000, 0);
  // Queued requests wait; the worst latency must exceed the best by at
  // least one full service time's worth of queueing.
  EXPECT_GT(rep.latency_max, rep.latency_p50);
}

// The digest moves when behavior moves: a different seed or a different
// config cannot collide on these small streams.
TEST(FabricServe, DigestTracksBehavior) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 1;
  stream.num_requests = 12;
  const sim::MachineConfig compact = sim::config_by_name("Compact2");
  const serve::ServeReport base = serve::serve(p, all_methods(p), compact, stream);
  serve::RequestStreamOptions other = stream;
  other.seed = 2;
  EXPECT_NE(base.digest(),
            serve::serve(p, all_methods(p), compact, other).digest());
  EXPECT_NE(base.digest(),
            serve::serve(p, all_methods(p), sim::config_by_name("Hetero2"),
                         stream)
                .digest());
}

// Contention can reorder a residency's own tokens so that the calendar
// drains while it still runs. On this kernel stream one Sha256.sha BP1
// residency strands on Hetero2; serving must end anyway, report it timed
// out, and still partition the stream.
TEST(FabricServe, StrandedResidencyEndsTimedOut) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  serve::RequestStreamOptions stream;
  stream.num_requests = 350;
  stream.mean_gap_ticks = 48;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep =
      serve::serve(kernels.program, all_methods(kernels.program),
                   sim::config_by_name("Hetero2"), stream);
  EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out, rep.requests);
  EXPECT_EQ(rep.timed_out, 1);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_EQ(int{o.completed} + int{o.rejected} + int{o.timed_out}, 1)
        << o.request_id;
    if (o.timed_out) {
      const std::string& name =
          kernels.program.methods[static_cast<std::size_t>(o.method_index)]
              .name;
      EXPECT_NE(name.find("Sha256.sha"), std::string::npos) << name;
      EXPECT_EQ(o.completed_tick, -1);
    }
  }
}

// A 70,000-request stream on one fabric, more than the 65,535 rows a
// calendar slot can name: every request completes, none is reported
// "rejected" although it fits, and a rerun is bit-identical. A sparse
// stream whose run outlasts 2^40 ticks completes every request too:
// serving has no tick budget of its own to time them out.
TEST(FabricServe, SeventyThousandRequestStreamCompletes) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  serve::RequestStreamOptions stream;
  stream.num_requests = 70'000;
  stream.mean_gap_ticks = 1000;
  stream.hot_methods = 1;
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const serve::ServeReport rep = serve::serve(kernels.program, {0, 1}, cfg, stream);
  EXPECT_EQ(rep.requests, 70'000);
  EXPECT_EQ(rep.completed, rep.requests);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.timed_out, 0);
  EXPECT_EQ(serve::serve(kernels.program, {0, 1}, cfg, stream).digest(),
            rep.digest());

  serve::RequestStreamOptions sparse = stream;
  sparse.num_requests = 1200;
  sparse.mean_gap_ticks = 1'000'000'000;
  const serve::ServeReport long_run =
      serve::serve(kernels.program, {0, 1}, cfg, sparse);
  EXPECT_EQ(long_run.completed, 1200);
  EXPECT_EQ(long_run.timed_out, 0);
  EXPECT_GT(long_run.fabric_ticks, std::int64_t{1} << 40);
}

// One kernel stream (seed 1, 96 requests, mean gap 48, the default hot
// set) on every Table 15 config: every request completes, each report
// matches its pinned digest, and the fabrics with room for several
// kernels overlap residencies (Chapter 8 superposition).
TEST(FabricServe, KernelStreamMatchesPinnedDigestsOnEveryConfig) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  serve::RequestStreamOptions stream;
  stream.seed = 1;
  stream.num_requests = 96;
  stream.mean_gap_ticks = 48;
  struct Pin {
    const char* config;
    std::uint64_t digest;
    bool must_overlap;
  };
  const Pin pins[] = {
      {"Baseline", 5822891224880000665ULL, true},
      {"Compact10", 3939259167393990589ULL, true},
      {"Compact4", 15199436679840093437ULL, true},
      {"Compact2", 4517889217754025592ULL, false},
      {"Sparse2", 10531960556499737667ULL, false},
      {"Hetero2", 6803778896200314394ULL, false},
  };
  ASSERT_EQ(std::size(pins), sim::table15_configs().size());
  for (const Pin& pin : pins) {
    const serve::ServeReport rep =
        serve::serve(kernels.program, all_methods(kernels.program),
                     sim::config_by_name(pin.config), stream);
    EXPECT_EQ(rep.completed, 96) << pin.config;
    EXPECT_EQ(rep.rejected, 0) << pin.config;
    EXPECT_EQ(rep.timed_out, 0) << pin.config;
    EXPECT_EQ(rep.digest(), pin.digest) << pin.config;
    if (pin.must_overlap) {
      EXPECT_GT(rep.ticks_res_2plus, 0) << pin.config;
    }
  }
}

// A residency is reclaimed only once its last event has drained. In
// this stream contention lets one residency's TAIL overtake one of its
// own REGISTER tokens, so the residency completes while that token is
// still heading for a node in the middle of its chain, and the method's
// next request is admitted the same tick. Reclaiming at completion
// would hand the token to whichever residency takes the row and lane
// window next. Pinned to the digest the engine produced before it
// recycled anything, when every admission got a fresh row and window.
TEST(FabricServe, ReclaimWaitsForInFlightTokens) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  serve::RequestStreamOptions stream;
  stream.seed = 10;
  stream.num_requests = 300;
  stream.mean_gap_ticks = 24;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep =
      serve::serve(kernels.program, all_methods(kernels.program),
                   sim::config_by_name("Hetero2"), stream);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.digest(), 7231434583688807187ULL);
}

// Streams that stress every admission decision — LRU eviction on a tiny
// fabric, a method that never fits, all-hot skew that piles one method's
// requests up behind its busy Anchor, and heads blocked for space behind
// busy residents — pinned to the digests the whole-queue admission scan
// produced, so the indexed admission provably makes the same FIFO,
// scan-around, rejection, eviction and head-of-line decisions. In
// `lru_tie` on Baseline, the first two requests' residencies finish on
// the same tick, and the third request needs room: the LRU tie goes to
// the smaller resident id, whose eviction alone frees enough; evicting
// the larger id first costs a second eviction and changes the digest.
TEST(FabricServe, AdmissionDecisionsMatchPinnedDigests) {
  Program p = serve_program();
  {
    Assembler a(p, "serve.huge(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 60; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  const std::vector<std::int32_t> five = {0, 1, 2, 3, 4};
  const std::vector<std::int32_t> six = {0, 1, 2, 3, 4, 5};
  struct Case {
    const char* what;
    const std::vector<std::int32_t>* methods;
    std::int32_t capacity;  // 0 keeps the config's fabric
    std::uint64_t seed;
    std::int32_t requests;
    std::int64_t mean_gap;
    std::int32_t hot_fraction_256;
    std::int32_t hot_methods;
  };
  const Case cases[] = {
      {"lru_eviction", &five, 30, 3, 40, 2, 0, 4},
      {"never_fits", &six, 40, 9, 32, 4, 0, 4},
      {"all_hot", &five, 0, 13, 64, 1, 256, 2},
      {"head_of_line", &five, 40, 5, 60, 1, 0, 4},
      {"lru_tie", &five, 30, 2, 3, 12, 128, 4},
  };
  struct Pin {
    const char* config;
    std::uint64_t digest[5];  // in `cases` order
  };
  const Pin pins[] = {
      {"Baseline",
       {12582923849390311689ULL, 16531919772170065778ULL,
        11135536421782137674ULL, 17179660635409513156ULL,
        3626731935493203235ULL}},
      {"Compact2",
       {10831565945196100520ULL, 961027459036995293ULL,
        13979930859290752567ULL, 2211773480499230465ULL,
        11889555610280695497ULL}},
      {"Hetero2",
       {5866116968032277101ULL, 3526962621898623791ULL,
        8801910701658843028ULL, 6596674828585850240ULL,
        10782148743435447120ULL}},
  };
  for (const Pin& pin : pins) {
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      const Case& tc = cases[c];
      sim::MachineConfig cfg = sim::config_by_name(pin.config);
      if (tc.capacity > 0) cfg.capacity = tc.capacity;
      serve::RequestStreamOptions stream;
      stream.seed = tc.seed;
      stream.num_requests = tc.requests;
      stream.mean_gap_ticks = tc.mean_gap;
      stream.hot_fraction_256 = tc.hot_fraction_256;
      stream.hot_methods = tc.hot_methods;
      const serve::ServeReport rep = serve::serve(p, *tc.methods, cfg, stream);
      EXPECT_EQ(rep.timed_out, 0) << pin.config << " " << tc.what;
      EXPECT_EQ(rep.digest(), pin.digest[c]) << pin.config << " " << tc.what;
    }
  }
}

}  // namespace
}  // namespace javaflow
