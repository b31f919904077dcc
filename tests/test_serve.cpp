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
#include <limits>
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

// The phys_delta of the first fabric row past a residency of `plan` at
// `phys_delta`: where a co-resident may start, because MultiEngine::admit
// refuses a residency on a row of one that has not finished.
std::int32_t row_after(const ExecPlan& plan, const sim::MachineConfig& cfg,
                       std::int32_t phys_delta = 0) {
  return ((phys_delta + plan.max_phys()) / cfg.width + 1) * cfg.width;
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
    ASSERT_GE(engine.admit(p.methods[0], plan, row_after(plan, cfg),
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
  EXPECT_EQ(solo_agg.ring_wait_ticks, 0);

  MultiEngine duo(cfg);
  duo.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  duo.admit(p.methods[0], plan, 2 * cfg.width,
            BranchPredictor::Scenario::BP1, 0);
  while (duo.advance().has_value()) {
  }
  const sim::MultiRunMetrics agg = duo.finish();
  std::int64_t ring = 0;
  for (const sim::ResidentOutcome& out : agg.residents) {
    ring += out.ring_wait_ticks;
  }
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
    upfront.admit(p.methods[0], plan, row_after(plan, cfg),
                  BranchPredictor::Scenario::BP1, kStart);
    while (upfront.advance().has_value()) {
    }
    const sim::MultiRunMetrics ref = upfront.finish();

    MultiEngine paused(cfg);
    paused.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1,
                 kStart);
    EXPECT_FALSE(paused.advance(kStart - 10).has_value());
    EXPECT_EQ(paused.now(), kStart - 10);
    paused.admit(p.methods[0], plan, row_after(plan, cfg),
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
    const std::int32_t second = row_after(loop_plan, cfg);
    const std::int32_t third = row_after(loop_plan, cfg, second);
    auto run = [&](bool widen_first) {
      MultiEngine engine(cfg);
      if (widen_first) {
        engine.admit(big, big_plan, 200 * cfg.width,
                     BranchPredictor::Scenario::BP1, 10'000'000);
      }
      std::vector<sim::ResidentId> ids;
      ids.push_back(engine.admit(loop, loop_plan, 0,
                                 BranchPredictor::Scenario::BP1, 0));
      ids.push_back(engine.admit(loop, loop_plan, second,
                                 BranchPredictor::Scenario::BP2,
                                 kPause + 100));
      while (engine.advance(kPause).has_value()) {
      }
      ids.push_back(engine.admit(big, big_plan, third,
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

// ---- the row contract ----

// The loop, then a method that returns early: on its first BP2 execution
// the forward jump falls through to the first return while the
// duplicated operand is still crossing the mesh to a negation ten rows
// down, so the residency finishes with that event in flight.
Program early_return_program() {
  Program p = loop_program();
  Assembler a(p, "serve.early(I)I", "serve");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto late = a.new_label();
  a.iload(0).op(Op::dup).ifgt(late).op(Op::ireturn);
  a.bind(late);
  for (int i = 0; i < 100; ++i) a.iinc(0, 1);
  a.op(Op::ineg).op(Op::ireturn);
  p.methods.push_back(a.build());
  return p;
}

// admit() keeps residencies row-private: a residency whose rows meet
// those of an unfinished one throws std::invalid_argument, whether the
// overlap is whole or a single row, and leaves the engine as it was.
// A finished residency's rows are free at once, before its last events
// drain; its stale event is dropped without touching the successor.
TEST(MultiEngineRows, AdmitRefusesRowsOfAnUnfinishedResidency) {
  const Program p = early_return_program();
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& early = p.methods[1];
  const ExecPlan loop_plan = ExecPlanBuilder().build(
      loop, fabric::build_dataflow_graph(loop, p.pool), nullptr, cfg);
  const ExecPlan early_plan = ExecPlanBuilder().build(
      early, fabric::build_dataflow_graph(early, p.pool), nullptr, cfg);
  ASSERT_EQ(loop_plan.max_phys() / cfg.width, 0);  // one row
  const std::int32_t last = early_plan.max_phys() / cfg.width;
  ASSERT_GT(last, 1);
  // The early method on rows 0..last and the loop on row 2·last + 1, so
  // the early method shifted to row last + 1 meets the loop on one row.
  const std::int32_t loop_delta = (2 * last + 1) * cfg.width;
  const std::int32_t one_row = (last + 1) * cfg.width;

  auto run = [&](bool intrude) {
    MultiEngine engine(cfg);
    EXPECT_EQ(engine.admit(early, early_plan, 0,
                           BranchPredictor::Scenario::BP1, 0),
              0);
    EXPECT_EQ(engine.admit(loop, loop_plan, loop_delta,
                           BranchPredictor::Scenario::BP1, 0),
              1);
    EXPECT_FALSE(engine.advance(20).has_value());
    if (intrude) {
      EXPECT_THROW(engine.admit(loop, loop_plan, loop_delta,
                                BranchPredictor::Scenario::BP1, 20),
                   std::invalid_argument);
      EXPECT_THROW(engine.admit(early, early_plan, one_row,
                                BranchPredictor::Scenario::BP1, 20),
                   std::invalid_argument);
      EXPECT_EQ(engine.resident_count(), 2u);
    }
    std::vector<sim::ResidentId> order;
    std::optional<sim::ResidentId> done;
    while ((done = engine.advance()).has_value()) order.push_back(*done);
    return std::make_pair(order, engine.finish());
  };
  const auto [order, agg] = run(false);
  const auto [order_after, agg_after] = run(true);
  EXPECT_EQ(order_after, order);
  ASSERT_EQ(agg_after.residents.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(agg_after.residents[i].metrics.completed) << i;
    EXPECT_EQ(agg_after.residents[i].metrics, agg.residents[i].metrics) << i;
    EXPECT_EQ(agg_after.residents[i].completed_tick,
              agg.residents[i].completed_tick)
        << i;
    EXPECT_EQ(agg_after.residents[i].ring_wait_ticks,
              agg.residents[i].ring_wait_ticks)
        << i;
  }
  EXPECT_EQ(agg_after.fabric_ticks, agg.fabric_ticks);
  EXPECT_EQ(agg_after.ticks_res_2plus, agg.ticks_res_2plus);

  // Finished with an operand in flight: its rows take the next residency
  // at once, but its lane window is reclaimed only once the operand has
  // drained, so the successor gets a window of its own.
  MultiEngine engine(cfg);
  const sim::ResidentId first =
      engine.admit(early, early_plan, 0, BranchPredictor::Scenario::BP2, 0);
  ASSERT_EQ(engine.advance(), std::optional<sim::ResidentId>(first));
  EXPECT_TRUE(engine.outcome(first)->metrics.completed);
  EXPECT_FALSE(engine.idle());
  const std::size_t lanes = engine.lane_count();
  const sim::ResidentId next = engine.admit(
      early, early_plan, 0, BranchPredictor::Scenario::BP1, engine.now());
  EXPECT_EQ(engine.lane_count(), 2 * lanes);
  ASSERT_EQ(engine.advance(), std::optional<sim::ResidentId>(next));
  EXPECT_EQ(engine.outcome(next)->metrics,
            single_run(cfg, early, early_plan, BranchPredictor::Scenario::BP1));
}

// ---- residency recycling ----

// Methods for the recycling tests, in this order: the loop; a short
// arithmetic chain; and an array store, a posted MemoryWrite whose ring
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
  EXPECT_EQ(got.ring_wait_ticks, want.ring_wait_ticks) << what;
}

// Ring occupancy is keyed by the ResidentId, never by the recycled table
// row, because a reservation can outlive its residency: a posted
// MemoryWrite reserves its ring channel without scheduling anything (a
// long ring.memory_write keeps it open well past the method's end). A
// successor in the same row must find the channel exactly as one in a
// fresh row does. (Serial and mesh links are the rows' own: a residency
// is admitted only on rows no unfinished residency holds.)
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
  const ExecPlan put_plan = plan_of(2);
  // Far from every other residency's rows.
  const Placed filler{&p.methods[1], &chain_plan, 100 * cfg.width};

  const Placed put{&p.methods[2], &put_plan, 0};
  expect_same_outcome(
      successor_outcome(cfg, MultiEngine::kNoLimit, put, put, nullptr),
      successor_outcome(cfg, MultiEngine::kNoLimit, put, put, &filler),
      "posted write");
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

// Every input of a stream has a range (docs/SERVING.md "Request
// model"), so an out-of-range value fails closed instead of silently
// reshaping the stream: outside it the stream, and so serve(), throws.
// The mean gap's bound keeps every gap and arrival tick inside int64.
// The boundary values build.
TEST(RequestStream, EveryOptionOutsideItsRangeThrows) {
  using Options = serve::RequestStreamOptions;
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  struct Field {
    const char* name;
    void (*set)(Options&, std::int64_t);
    std::vector<std::int64_t> bad;
    std::vector<std::int64_t> boundary;
  };
  const Field fields[] = {
      {"num_requests",
       [](Options& o, std::int64_t v) {
         o.num_requests = static_cast<std::int32_t>(v);
       },
       {-1, -3, kMin32},
       {0, 1}},
      {"mean_gap_ticks",
       [](Options& o, std::int64_t v) { o.mean_gap_ticks = v; },
       {0, -5, serve::kMaxMeanGapTicks + 1, std::int64_t{1} << 61,
        std::int64_t{1} << 62},
       {1, serve::kMaxMeanGapTicks}},
      {"hot_fraction_256",
       [](Options& o, std::int64_t v) {
         o.hot_fraction_256 = static_cast<std::int32_t>(v);
       },
       {-1, -5, 257, 1000, kMin32, kMax32},
       {0, 256}},
      {"hot_methods",
       [](Options& o, std::int64_t v) {
         o.hot_methods = static_cast<std::int32_t>(v);
       },
       {0, -7, kMin32},
       {1, kMax32}},
  };
  const Program p = serve_program();
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  for (const Field& f : fields) {
    for (const std::int64_t bad : f.bad) {
      Options o;
      o.num_requests = 8;
      f.set(o, bad);
      EXPECT_THROW(serve::make_request_stream(3, o), std::invalid_argument)
          << f.name << " = " << bad;
      EXPECT_THROW(serve::serve(p, all_methods(p), cfg, o),
                   std::invalid_argument)
          << f.name << " = " << bad << " through serve()";
    }
    for (const std::int64_t good : f.boundary) {
      Options o;
      o.num_requests = 8;
      f.set(o, good);
      EXPECT_EQ(serve::make_request_stream(3, o).size(),
                static_cast<std::size_t>(o.num_requests))
          << f.name << " = " << good;
    }
  }
  // The method count is the stream's argument; serve() passes its method
  // list's size and rejects an empty list itself.
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{-1}, kMin32}) {
    EXPECT_THROW(serve::make_request_stream(static_cast<std::int32_t>(bad),
                                            Options{}),
                 std::invalid_argument)
        << "num_methods = " << bad;
  }
  EXPECT_EQ(serve::make_request_stream(1, Options{}).size(),
            static_cast<std::size_t>(Options{}.num_requests));
  EXPECT_THROW(serve::serve(p, {}, cfg, Options{}), std::invalid_argument);
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

// The stream that once stranded a residency. The server then packed
// methods greedily into each other's rows, where contention let one
// Sha256.sha BP1 residency's TAIL overtake its own tokens; the calendar
// drained with it still running, and it ended timed out (ROADMAP item
// 2). Placed only into whole free rows, no residency shares a serial or
// mesh link, and every request completes: 113 loads, 60 evictions and
// no dedicated lowering.
TEST(FabricServe, StrandingReproducerCompletesEveryRequest) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  serve::RequestStreamOptions stream;
  stream.num_requests = 350;
  stream.mean_gap_ticks = 48;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep =
      serve::serve(kernels.program, all_methods(kernels.program),
                   sim::config_by_name("Hetero2"), stream);
  EXPECT_EQ(rep.completed, 350);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.timed_out, 0);
  EXPECT_EQ(rep.serial_wait_ticks, 0);
  EXPECT_EQ(rep.mesh_wait_ticks, 0);
  EXPECT_EQ(rep.loads, 113);
  EXPECT_EQ(rep.evictions, 60);
  EXPECT_EQ(rep.plans_lowered, 0);
  EXPECT_EQ(rep.latency_p50, 9'790);
  EXPECT_EQ(rep.latency_p99, 691'086);
}

// Fabric pressure used to strand residencies: on shrunken fabrics the
// greedy packer put methods into each other's rows, and 540 of 864 such
// streams (6 configs × 4 capacities × 3 gaps × 12 seeds) timed out
// requests. Placed into whole free rows, residencies share no serial or
// mesh link, so no request waits on one and none strands.
TEST(FabricServe, NoStrandingUnderFabricPressure) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  for (const char* name :
       {"Compact10", "Compact4", "Compact2", "Sparse2", "Hetero2"}) {
    for (const std::int32_t capacity : {400, 1600}) {
      for (const std::uint64_t seed : {1, 2}) {
        sim::MachineConfig cfg = sim::config_by_name(name);
        cfg.capacity = capacity;
        serve::RequestStreamOptions stream;
        stream.seed = seed;
        stream.num_requests = 96;
        stream.mean_gap_ticks = 8;
        stream.hot_fraction_256 = 0;
        const serve::ServeReport rep = serve::serve(
            kernels.program, all_methods(kernels.program), cfg, stream);
        const std::string what = std::string(name) + " capacity " +
                                 std::to_string(capacity) + " seed " +
                                 std::to_string(seed);
        EXPECT_EQ(rep.timed_out, 0) << what;
        EXPECT_EQ(rep.serial_wait_ticks, 0) << what;
        EXPECT_EQ(rep.mesh_wait_ticks, 0) << what;
        EXPECT_EQ(rep.requests, rep.completed + rep.rejected + rep.timed_out)
            << what;
      }
    }
  }
}

// Serving's stranded path without any link contention. On a Hetero2
// fabric 7 wide instead of 10, the §6.3 token semantics leave one kernel
// unable to finish even alone (ROADMAP item 2): its calendar drains with
// the run still going. Served, the calendar drains with that residency
// still running, so it ends timed out, never completed, and the outcomes
// still partition the stream.
TEST(FabricServe, StrandedResidencyOnANarrowMeshEndsTimedOut) {
  const workloads::Corpus kernels =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  const Program& p = kernels.program;
  sim::MachineConfig cfg = sim::config_by_name("Hetero2");
  cfg.width = 7;
  serve::RequestStreamOptions stream;
  stream.num_requests = 96;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep = serve::serve(p, all_methods(p), cfg, stream);
  EXPECT_EQ(rep.timed_out, 1);
  EXPECT_EQ(rep.completed, 95);
  EXPECT_EQ(rep.serial_wait_ticks, 0);
  EXPECT_EQ(rep.mesh_wait_ticks, 0);
  EXPECT_EQ(rep.requests, rep.completed + rep.rejected + rep.timed_out);

  const auto requests =
      serve::make_request_stream(static_cast<std::int32_t>(p.methods.size()),
                                 stream);
  std::int64_t stranded = 0;
  for (const serve::RequestOutcome& o : rep.outcomes) {
    if (!o.timed_out) continue;
    ++stranded;
    EXPECT_FALSE(o.completed);
    EXPECT_FALSE(o.rejected);
    EXPECT_EQ(o.completed_tick, -1);
    EXPECT_EQ(o.latency_ticks, -1);
    EXPECT_GE(o.admitted_tick, o.arrival_tick);
    EXPECT_TRUE(o.metrics.timed_out);
    EXPECT_FALSE(o.metrics.completed);
    const bytecode::Method& m =
        p.methods[static_cast<std::size_t>(o.method_index)];
    EXPECT_EQ(m.name, "scimark.fft.FFT.transform_internal(AI)V");
    // Alone on the same fabric, the method never finishes either.
    const ExecPlan plan = ExecPlanBuilder().build(
        m, fabric::build_dataflow_graph(m, p.pool), nullptr, cfg);
    const RunMetrics alone = single_run(
        cfg, m, plan,
        requests[static_cast<std::size_t>(o.request_id)].scenario);
    EXPECT_FALSE(alone.completed);
    EXPECT_FALSE(alone.timed_out);
  }
  EXPECT_EQ(stranded, 1);
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

// A dense Hetero2 stream (300 requests, a request every 24 ticks on
// average, the queue 143 deep at its peak, 12 evictions), pinned.
// Reclaiming a residency at completion instead of after its last event
// drains leaves this digest unchanged, so
// MultiEngineRows.AdmitRefusesRowsOfAnUnfinishedResidency pins
// reclaim-after-drain.
TEST(FabricServe, DenseHetero2StreamMatchesPinnedDigest) {
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
  EXPECT_EQ(rep.completed, 300);
  EXPECT_EQ(rep.max_queue_depth, 143);
  EXPECT_EQ(rep.evictions, 12);
  EXPECT_EQ(rep.digest(), 11444401082350804626ULL);
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
        11135536421782137674ULL, 8128838006317306219ULL,
        3626731935493203235ULL}},
      {"Compact2",
       {10831565945196100520ULL, 961027459036995293ULL,
        13979930859290752567ULL, 4485952548827129651ULL,
        11889555610280695497ULL}},
      {"Hetero2",
       {5866116968032277101ULL, 15711684905892572957ULL,
        8801910701658843028ULL, 1891913935028279328ULL,
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
