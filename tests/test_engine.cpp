// Tests for the execution engine: firing rules, token bundle mechanics,
// loop replay, predictor behaviour, cross-configuration ordering, and the
// uninstrumented kernel's fast path and loop fast-forward against the
// full-event instrumented kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "util/parallel_for.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::sim {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

RunMetrics run_on(const std::string& config, const bytecode::Method& m,
                  const bytecode::ConstantPool& pool,
                  BranchPredictor::Scenario scenario =
                      BranchPredictor::Scenario::BP1) {
  const auto graph = fabric::build_dataflow_graph(m, pool);
  Engine engine(config_by_name(config));
  BranchPredictor predictor(scenario);
  return engine.run(m, graph, predictor);
}

bytecode::Method trivial(Program& p) {
  Assembler a(p, "t.t()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1).op(Op::ireturn);
  return a.build();
}

TEST(Engine, TrivialMethodCompletes) {
  Program p;
  const auto m = trivial(p);
  for (const auto& cfg : table15_configs()) {
    Engine engine(cfg);
    BranchPredictor bp(BranchPredictor::Scenario::BP1);
    const auto graph = fabric::build_dataflow_graph(m, p.pool);
    const RunMetrics r = engine.run(m, graph, bp);
    EXPECT_TRUE(r.completed) << cfg.name;
    EXPECT_EQ(r.instructions_fired, 2) << cfg.name;
    EXPECT_DOUBLE_EQ(r.coverage(), 1.0) << cfg.name;
  }
}

TEST(Engine, StraightLineFiresEverything) {
  Program p;
  Assembler a(p, "t.line()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1).iconst(2).op(Op::iadd).iconst(3).op(Op::imul);
  a.op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.instructions_fired,
            static_cast<std::int64_t>(m.code.size()));
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
}

TEST(Engine, RegisterTokensDriveLocalOps) {
  // read-modify-write chain through registers: iload -> iadd -> istore,
  // then a dependent iload downstream must see the new token.
  Program p;
  Assembler a(p, "t.regs(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iconst(1).op(Op::iadd).istore(0);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.instructions_fired,
            static_cast<std::int64_t>(m.code.size()));
}

TEST(Engine, BackJumpLoopsTenTimesPerVisit) {
  // Bottom-test loop: the conditional back jump is taken 9 times, so the
  // two-instruction body fires 9 times (§7.3's 90 % rule).
  Program p;
  Assembler a(p, "t.loop(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);        // 0
  a.bind(body);
  a.iinc(0, 1);         // 1 (the body)
  a.bind(test);
  a.iload(0);           // 2
  a.ifgt(body);         // 3 — backward conditional
  a.iload(0);           // 4
  a.op(Op::ireturn);    // 5
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  // goto fires once; body(iinc) 9x; iload@2 and ifgt 10x; exit pair once.
  EXPECT_EQ(r.instructions_fired, 1 + 9 + 10 + 10 + 1 + 1);
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
}

TEST(Engine, ForwardBranchAlternatesBetweenScenarios) {
  // BP1 takes the first forward jump, skipping the arm; BP2 falls
  // through, covering it (§7.3).
  Program p;
  Assembler a(p, "t.fwd(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto skip = a.new_label();
  a.iload(0).ifle(skip);  // 0,1
  a.iinc(0, 1);           // 2 — only on the not-taken path
  a.iinc(0, 2);           // 3
  a.bind(skip);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics bp1 =
      run_on("Compact2", m, p.pool, BranchPredictor::Scenario::BP1);
  const RunMetrics bp2 =
      run_on("Compact2", m, p.pool, BranchPredictor::Scenario::BP2);
  ASSERT_TRUE(bp1.completed);
  ASSERT_TRUE(bp2.completed);
  EXPECT_LT(bp1.coverage(), 1.0);      // arm skipped
  EXPECT_DOUBLE_EQ(bp2.coverage(), 1.0);
  EXPECT_EQ(bp2.instructions_fired - bp1.instructions_fired, 2);
}

TEST(Engine, MergeConsumerReceivesExactlyOneOperand) {
  Program p;
  Assembler a(p, "t.merge(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto els = a.new_label(), join = a.new_label();
  a.iload(0).ifle(els);
  a.iconst(10).goto_(join);
  a.bind(els);
  a.iconst(20);
  a.bind(join);
  a.op(Op::ireturn);
  const auto m = a.build();
  for (const auto scenario :
       {BranchPredictor::Scenario::BP1, BranchPredictor::Scenario::BP2}) {
    const RunMetrics r = run_on("Compact2", m, p.pool, scenario);
    EXPECT_TRUE(r.completed);
  }
}

TEST(Engine, MemoryOpsSerializeViaMemoryToken) {
  // Two dependent array reads: the MEMORY token ordering plus data
  // dependence forces the second read to start after the first returns.
  Program p;
  Assembler a(p, "t.mem(A)I", "test");
  a.args({ValueType::Ref}).returns(ValueType::Int);
  a.aload(0).iconst(0).op(Op::iaload);   // 0,1,2
  a.aload(0).iconst(1).op(Op::iaload);   // 3,4,5
  a.op(Op::iadd).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  const auto& cfg = config_by_name("Compact2");
  // At least two full memory round trips must fit in the elapsed time.
  EXPECT_GE(r.mesh_cycles, 2 * cfg.ring.memory_read);
}

TEST(Engine, CallsStallOnlyTheTail) {
  Program p;
  Assembler a(p, "t.call()I", "test");
  a.returns(ValueType::Int);
  a.invokestatic("lib.f()I", 0, ValueType::Int);
  a.op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  const auto& cfg = config_by_name("Compact2");
  EXPECT_GE(r.mesh_cycles, cfg.ring.gpp_service);
}

TEST(Engine, SwitchRoutesThroughTableTargets) {
  Program p;
  Assembler a(p, "t.sw(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto c0 = a.new_label(), c1 = a.new_label(), dflt = a.new_label();
  a.iload(0);
  a.tableswitch(0, {c0, c1}, dflt);
  a.bind(c0);
  a.iconst(10).op(Op::ireturn);
  a.bind(c1);
  a.iconst(11).op(Op::ireturn);
  a.bind(dflt);
  a.iconst(-1).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  EXPECT_TRUE(r.completed);
}

TEST(Engine, IpcOrderingAcrossConfigurations) {
  // Build a method with loops, storage and float work, then check the
  // Table 22 ordering: Baseline >= Compact10 >= Compact4 >= Compact2 >=
  // Sparse2 and Hetero2 below Compact2.
  Program p;
  Assembler a(p, "t.work(IA)I", "test");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.aload(1).iload(0).op(Op::iaload);
  a.iconst(3).op(Op::imul).istore(0);
  a.iload(0).op(Op::i2d).dconst(0.5).op(Op::dmul).op(Op::d2i).istore(0);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const auto graph = fabric::build_dataflow_graph(m, p.pool);

  std::vector<double> ipc;
  for (const auto& cfg : table15_configs()) {
    Engine engine(cfg);
    BranchPredictor bp(BranchPredictor::Scenario::BP1);
    const RunMetrics r = engine.run(m, graph, bp);
    ASSERT_TRUE(r.completed) << cfg.name;
    ipc.push_back(r.ipc());
  }
  EXPECT_GE(ipc[0], ipc[1]);  // Baseline >= Compact10
  EXPECT_GE(ipc[1], ipc[2]);  // Compact10 >= Compact4
  EXPECT_GE(ipc[2], ipc[3]);  // Compact4 >= Compact2
  EXPECT_GE(ipc[3], ipc[4]);  // Compact2 >= Sparse2
  EXPECT_GT(ipc[3], ipc[5]);  // Compact2 > Hetero2
}

TEST(Engine, DeterministicAcrossRuns) {
  Program p;
  Assembler a(p, "t.det(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.iinc(0, 1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r1 = run_on("Hetero2", m, p.pool);
  const RunMetrics r2 = run_on("Hetero2", m, p.pool);
  EXPECT_EQ(r1.ticks, r2.ticks);
  EXPECT_EQ(r1.instructions_fired, r2.instructions_fired);
  EXPECT_EQ(r1.mesh_messages, r2.mesh_messages);
}

TEST(Engine, OversizedMethodDoesNotFit) {
  Program p;
  Assembler a(p, "t.big()I", "test");
  a.returns(ValueType::Int);
  for (int k = 0; k < 6000; ++k) a.iinc(0, 1);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const auto graph = fabric::build_dataflow_graph(m, p.pool);
  MachineConfig cfg = config_by_name("Hetero2");
  cfg.capacity = 4000;
  Engine engine(cfg);
  BranchPredictor bp(BranchPredictor::Scenario::BP1);
  const RunMetrics r = engine.run(m, graph, bp);
  EXPECT_FALSE(r.fits);
  EXPECT_FALSE(r.completed);
}

TEST(Engine, ParallelismBoundedByOne) {
  Program p;
  const auto m = trivial(p);
  const RunMetrics r = run_on("Baseline", m, p.pool);
  EXPECT_GE(r.parallel_2plus(), 0.0);
  EXPECT_LE(r.parallel_2plus(), 1.0);
  EXPECT_GE(r.ticks_exec_1plus, r.ticks_exec_2plus);
}

TEST(BranchPredictorTest, BackJumpNineOfTen) {
  BranchPredictor bp(BranchPredictor::Scenario::BP1);
  int taken = 0;
  for (int k = 0; k < 20; ++k) {
    if (bp.decide(7, BranchKind::Backward)) ++taken;
  }
  EXPECT_EQ(taken, 18);  // 9 of every 10
}

TEST(BranchPredictorTest, LoopExitOneOfTen) {
  BranchPredictor bp(BranchPredictor::Scenario::BP1);
  int taken = 0;
  for (int k = 0; k < 20; ++k) {
    if (bp.decide(7, BranchKind::LoopExit)) ++taken;
  }
  EXPECT_EQ(taken, 2);  // exits on the 10th visit
}

TEST(BranchPredictorTest, ForwardAlternatesWithScenarioPhase) {
  BranchPredictor bp1(BranchPredictor::Scenario::BP1);
  BranchPredictor bp2(BranchPredictor::Scenario::BP2);
  EXPECT_TRUE(bp1.decide(3, BranchKind::Forward));
  EXPECT_FALSE(bp1.decide(3, BranchKind::Forward));
  EXPECT_TRUE(bp1.decide(3, BranchKind::Forward));
  EXPECT_FALSE(bp2.decide(3, BranchKind::Forward));
  EXPECT_TRUE(bp2.decide(3, BranchKind::Forward));
}

TEST(BranchPredictorTest, SitesAreIndependent) {
  BranchPredictor bp(BranchPredictor::Scenario::BP1);
  EXPECT_TRUE(bp.decide(1, BranchKind::Forward));
  EXPECT_TRUE(bp.decide(2, BranchKind::Forward));  // fresh site
  EXPECT_FALSE(bp.decide(1, BranchKind::Forward));
}

TEST(BranchPredictorTest, TraceModeReplaysOutcomes) {
  BranchPredictor bp(BranchPredictor::Scenario::Trace);
  bp.feed_trace(4, true);
  bp.feed_trace(4, false);
  EXPECT_TRUE(bp.decide(4, BranchKind::Forward));
  EXPECT_FALSE(bp.decide(4, BranchKind::Forward));
  // Exhausted: loop exits are taken so execution terminates.
  EXPECT_FALSE(bp.decide(4, BranchKind::Forward));
  EXPECT_TRUE(bp.decide(4, BranchKind::LoopExit));
}

TEST(BranchClassification, DetectsHeadTestLoops) {
  Program p;
  Assembler a(p, "t.head(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto head = a.new_label(), done = a.new_label();
  a.bind(head);
  a.iload(0).ifle(done);   // 0,1 — loop exit (head test)
  a.iinc(0, -1);           // 2
  a.goto_(head);           // 3 — backward latch
  a.bind(done);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const auto kinds = classify_branches(m);
  EXPECT_EQ(static_cast<BranchKind>(kinds[1]), BranchKind::LoopExit);
  EXPECT_EQ(static_cast<BranchKind>(kinds[3]), BranchKind::Backward);
}

TEST(BranchClassification, PlainForwardBranchStaysForward) {
  Program p;
  Assembler a(p, "t.iff(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto skip = a.new_label();
  a.iload(0).ifle(skip);
  a.iinc(0, 1);
  a.bind(skip);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const auto kinds = classify_branches(m);
  EXPECT_EQ(static_cast<BranchKind>(kinds[1]), BranchKind::Forward);
}

TEST(Engine, HeadTestLoopAlsoItersTenTimes) {
  // The LoopExit rule makes the paper's 90 % trip count apply to
  // head-test loops too.
  Program p;
  Assembler a(p, "t.head(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto head = a.new_label(), done = a.new_label();
  a.bind(head);
  a.iload(0).ifle(done);
  a.iinc(0, -1);
  a.goto_(head);
  a.bind(done);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  // Test executes 10x (9 stay + 1 exit): iload+ifle 10x, body 9x,
  // goto 9x, exit pair once.
  EXPECT_EQ(r.instructions_fired, 10 + 10 + 9 + 9 + 1 + 1);
}

// Whether two predictors end with the same counter at every site of m.
bool same_counts(const BranchPredictor& a, const BranchPredictor& b,
                 const bytecode::Method& m) {
  for (std::int32_t site = 0; site < static_cast<std::int32_t>(m.code.size());
       ++site) {
    if (a.count(site, BranchKind::Forward) !=
            b.count(site, BranchKind::Forward) ||
        a.count(site, BranchKind::Backward) !=
            b.count(site, BranchKind::Backward) ||
        a.switch_count(site) != b.switch_count(site)) {
      return false;
    }
  }
  return true;
}

// A plain Engine runs the uninstrumented kernel, whose drain loop
// forwards tokens that cross their node untouched without dispatching
// them and whose calendar holds 16-byte slots; an Engine with a
// MetricsRegistry runs the instrumented kernel, which sends every
// delivery through the full on_serial handler and keeps whole events.
// On every 4th corpus method, on every config and scenario, the two must
// agree field for field and leave their predictors with equal counters,
// and the registry must have counted every serial message the runs
// report. The plain engine also fast-forwards loops; what it skips is
// deterministic and pinned, so a change to what the fast-forward
// compares or when it tries moves the pin.
TEST(FastPath, MatchesTheFullHandlerOnEveryFourthCorpusMethod) {
  const workloads::Corpus corpus = workloads::make_corpus({});
  std::vector<const bytecode::Method*> methods;
  std::vector<fabric::DataflowGraph> graphs;
  for (std::size_t i = 0; i < corpus.program.methods.size(); i += 4) {
    methods.push_back(&corpus.program.methods[i]);
    graphs.push_back(
        fabric::build_dataflow_graph(*methods.back(), corpus.program.pool));
  }
  const std::vector<MachineConfig> configs = table15_configs();

  struct ConfigResult {
    std::size_t cells = 0;
    std::size_t mismatches = 0;
    std::size_t predictor_mismatches = 0;
    std::string first_mismatch;
    std::uint64_t serial_messages = 0;  // summed over the runs
    RunWork work;                       // the plain engine's, summed
    obs::MetricsRegistry registry;
  };
  std::vector<ConfigResult> results(configs.size());
  util::parallel_for(util::hardware_threads(), configs.size(),
                     [&](std::size_t ci, unsigned) {
    const MachineConfig& config = configs[ci];
    ConfigResult& out = results[ci];
    const fabric::Fabric fabric(config.fabric_options());
    ExecPlanBuilder builder;
    Engine fast(config);
    EngineOptions instrumented;
    instrumented.metrics = &out.registry;
    Engine full(config, instrumented);
    for (std::size_t mi = 0; mi < methods.size(); ++mi) {
      const bytecode::Method& m = *methods[mi];
      const fabric::Placement placement = fabric::load_method(fabric, m);
      const ExecPlan plan = builder.build(m, graphs[mi], &placement, config);
      for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                  BranchPredictor::Scenario::BP2}) {
        BranchPredictor fast_predictor(scenario);
        BranchPredictor full_predictor(scenario);
        const RunMetrics a = fast.run(m, plan, fast_predictor);
        const RunMetrics b = full.run(m, plan, full_predictor);
        out.work.ff_periods += fast.last_work().ff_periods;
        out.work.ff_messages += fast.last_work().ff_messages;
        ++out.cells;
        if (!same_counts(fast_predictor, full_predictor, m)) {
          ++out.predictor_mismatches;
        }
        out.serial_messages += static_cast<std::uint64_t>(b.serial_messages);
        if (!(a == b) && out.mismatches++ == 0) {
          out.first_mismatch =
              m.name + (scenario == BranchPredictor::Scenario::BP1 ? " BP1"
                                                                   : " BP2") +
              ": ticks " + std::to_string(a.ticks) + " vs " +
              std::to_string(b.ticks) + ", serial messages " +
              std::to_string(a.serial_messages) + " vs " +
              std::to_string(b.serial_messages);
        }
      }
    }
  });

  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const ConfigResult& r = results[ci];
    EXPECT_EQ(r.cells, 2 * methods.size()) << configs[ci].name;
    EXPECT_EQ(r.mismatches, 0u)
        << configs[ci].name << ", first: " << r.first_mismatch;
    EXPECT_EQ(r.predictor_mismatches, 0u) << configs[ci].name;
    std::uint64_t commands = 0;
    for (const std::uint64_t n : r.registry.serial_commands) commands += n;
    EXPECT_EQ(commands, r.serial_messages) << configs[ci].name;
    EXPECT_EQ(r.registry.serial_messages, r.serial_messages)
        << configs[ci].name;
    EXPECT_GT(r.serial_messages, 0u) << configs[ci].name;
  }
  RunWork work;
  for (const ConfigResult& r : results) {
    work.ff_periods += r.work.ff_periods;
    work.ff_messages += r.work.ff_messages;
  }
  EXPECT_EQ(work.ff_periods, 19'235);
  EXPECT_EQ(work.ff_messages, 9'691'724);
}

// ---- loop fast-forward ----
//
// A plain Engine runs the kernel that fast-forwards loops; an Engine with
// a MetricsRegistry runs the instrumented kernel, which simulates every
// event. Each case runs one method through both, on every Table 15
// config under BP1 and BP2, and requires equal RunMetrics and equal
// predictor counters at every site.

struct FastForwardRun {
  RunMetrics fast;
  RunMetrics full;
  bool same_counts = false;
  RunWork work;  // the plain engine's
};

FastForwardRun run_both(const bytecode::Method& m,
                        const bytecode::ConstantPool& pool,
                        const MachineConfig& config,
                        BranchPredictor::Scenario scenario,
                        std::int64_t max_ticks = EngineOptions{}.max_ticks) {
  const auto graph = fabric::build_dataflow_graph(m, pool);
  EngineOptions plain;
  plain.max_ticks = max_ticks;
  obs::MetricsRegistry registry;
  EngineOptions hooked = plain;
  hooked.metrics = &registry;
  Engine fast(config, plain);
  Engine full(config, hooked);
  BranchPredictor fast_predictor(scenario);
  BranchPredictor full_predictor(scenario);
  FastForwardRun out;
  out.fast = fast.run(m, graph, fast_predictor);
  out.work = fast.last_work();
  out.full = full.run(m, graph, full_predictor);
  out.same_counts = same_counts(fast_predictor, full_predictor, m);
  EXPECT_EQ(full.last_work().ff_periods, 0);  // hooks never fast-forward
  return out;
}

// Checks `m` on `configs` under both scenarios; returns the loop periods
// the plain engine skipped over all runs.
std::int64_t expect_matches_full_kernel(
    const bytecode::Method& m, const bytecode::ConstantPool& pool,
    std::int64_t max_ticks = EngineOptions{}.max_ticks,
    const std::vector<MachineConfig>& configs = table15_configs()) {
  std::int64_t skipped = 0;
  for (const MachineConfig& config : configs) {
    for (const auto scenario :
         {BranchPredictor::Scenario::BP1, BranchPredictor::Scenario::BP2}) {
      const FastForwardRun run = run_both(m, pool, config, scenario, max_ticks);
      const char* name =
          scenario == BranchPredictor::Scenario::BP1 ? " BP1" : " BP2";
      EXPECT_EQ(run.fast, run.full) << config.name << name;
      EXPECT_TRUE(run.same_counts) << config.name << name;
      skipped += run.work.ff_periods;
    }
  }
  return skipped;
}

// Ten visits of a ten-trip inner loop: two bottom-test latches.
bytecode::Method nested_loop(Program& p) {
  Assembler a(p, "t.nested(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto outer = a.new_label(), inner = a.new_label();
  a.iconst(10).istore(1);
  a.bind(outer);
  a.iconst(10).istore(2);
  a.bind(inner);
  a.iinc(0, 1);
  a.iinc(2, -1);
  a.iload(2).ifgt(inner);
  a.iinc(1, -1);
  a.iload(1).ifgt(outer);
  a.iload(0).op(Op::ireturn);
  return a.build();
}

TEST(FastForward, NestedCountingLoop) {
  Program p;
  const auto m = nested_loop(p);
  EXPECT_GT(expect_matches_full_kernel(m, p.pool), 0);
  // Every skipped trip still counts: 2 + 10 x (2 + 10 x 4 + 3) + 2.
  const RunMetrics r = run_on("Compact2", m, p.pool);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.instructions_fired, 2 + 10 * (2 + 10 * 4 + 3) + 2);
}

// The forward branch alternates, so the body repeats every two trips
// (P = 2).
TEST(FastForward, AlternatingForwardBranchInTheBody) {
  Program p;
  Assembler a(p, "t.alternate(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), skip = a.new_label();
  a.iconst(10).istore(1);
  a.bind(body);
  a.iload(0).ifle(skip);
  a.iinc(0, 1).iinc(0, 2);
  a.bind(skip);
  a.iinc(1, -1);
  a.iload(1).ifgt(body);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  EXPECT_GT(expect_matches_full_kernel(m, p.pool), 0);
}

TEST(FastForward, TableswitchInALoop) {
  Program p;
  Assembler a(p, "t.switch(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), c0 = a.new_label(), dflt = a.new_label(),
       join = a.new_label();
  a.iconst(10).istore(1);
  a.bind(body);
  a.iload(0).tableswitch(0, {c0}, dflt);  // two arms, taken in turn
  a.bind(c0);
  a.iinc(0, 1).iinc(0, 2).goto_(join);
  a.bind(dflt);
  a.iinc(0, 3);
  a.bind(join);
  a.iinc(1, -1);
  a.iload(1).ifgt(body);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  EXPECT_GT(expect_matches_full_kernel(m, p.pool), 0);
}

// The exit test leaves a copy of the counter for the return past the
// loop, so every trip sends an operand beyond the latch.
TEST(FastForward, OperandToAConsumerAfterTheLoop) {
  Program p;
  Assembler a(p, "t.escape(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto head = a.new_label(), exit = a.new_label();
  a.bind(head);
  a.iload(0).op(Op::dup).ifle(exit);
  a.op(Op::pop).iinc(0, -1).goto_(head);
  a.bind(exit);
  a.op(Op::ireturn);
  const auto m = a.build();
  expect_matches_full_kernel(m, p.pool);
}

// The budget runs out inside a span the fast-forward would skip: the
// timeout lands on the same tick. Each budget cuts some config's run
// short (the whole run takes 2,588 ticks on Compact2).
TEST(FastForward, TickBudgetRunsOutInsideASkippableSpan) {
  Program p;
  const auto m = nested_loop(p);
  for (const std::int64_t max_ticks : {120, 1'000, 5'000}) {
    expect_matches_full_kernel(m, p.pool, max_ticks);
    int cut = 0;
    for (const MachineConfig& config : table15_configs()) {
      const FastForwardRun run = run_both(
          m, p.pool, config, BranchPredictor::Scenario::BP1, max_ticks);
      if (run.fast.timed_out) {
        ++cut;
        EXPECT_GT(run.fast.ticks, max_ticks) << config.name;
      }
    }
    EXPECT_GT(cut, 0) << max_ticks;
  }
}

// A ring latency far past the calendar ring: memory reads in the inner
// body spill, and the jumps move a 4,096-bucket ring.
TEST(FastForward, SlowRingSpills) {
  Program p;
  Assembler a(p, "t.reads(IA)I", "test");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  auto outer = a.new_label(), inner = a.new_label();
  a.iconst(10).istore(2);
  a.bind(outer);
  a.iconst(10).istore(3);
  a.bind(inner);
  a.aload(1).iload(3).op(Op::iaload).istore(0);
  a.iinc(3, -1);
  a.iload(3).ifgt(inner);
  a.iinc(2, -1);
  a.iload(2).ifgt(outer);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  MachineConfig config = config_by_name("Compact2");
  config.ring.memory_read = 100'000;
  const std::vector<MachineConfig> configs = {config};
  EXPECT_GT(expect_matches_full_kernel(m, p.pool,
                                       std::numeric_limits<std::int64_t>::max(),
                                       configs),
            0);
  EXPECT_GT(run_both(m, p.pool, config, BranchPredictor::Scenario::BP1,
                     std::numeric_limits<std::int64_t>::max())
                .work.spills,
            0);
}

// A Trace predictor has no counters to predict from, and an engine with
// hooks is the reference: neither fast-forwards. The trace here replays
// the BP1 decisions, so the run must equal the BP1 run.
TEST(FastForward, OffUnderTraceAndWithHooks) {
  Program p;
  const auto m = nested_loop(p);
  const auto graph = fabric::build_dataflow_graph(m, p.pool);
  // Both latches are Backward jumps, which BP1 takes nine times of ten;
  // the inner one sees ten visits.
  BranchPredictor trace(BranchPredictor::Scenario::Trace);
  for (std::int32_t site = 0; site < static_cast<std::int32_t>(m.code.size());
       ++site) {
    if (!m.code[static_cast<std::size_t>(site)].is_branch()) continue;
    for (int visit = 0; visit < 10; ++visit) {
      for (int trip = 0; trip < 10; ++trip) {
        trace.feed_trace(site, trip < 9);
      }
    }
  }
  Engine engine(config_by_name("Compact2"));
  BranchPredictor bp1(BranchPredictor::Scenario::BP1);
  const RunMetrics counted = engine.run(m, graph, bp1);
  EXPECT_GT(engine.last_work().ff_periods, 0);
  const RunMetrics traced = engine.run(m, graph, trace);
  EXPECT_EQ(engine.last_work().ff_periods, 0);
  EXPECT_EQ(engine.last_work().ff_messages, 0);
  EXPECT_EQ(traced, counted);

  obs::MetricsRegistry registry;
  EngineOptions hooked;
  hooked.metrics = &registry;
  Engine full(config_by_name("Compact2"), hooked);
  BranchPredictor again(BranchPredictor::Scenario::BP1);
  EXPECT_EQ(full.run(m, graph, again), counted);
  EXPECT_EQ(full.last_work().ff_periods, 0);
}

}  // namespace
}  // namespace javaflow::sim
