// Tests for the static bound analyzer and the token-flow model checker
// (docs/ANALYSIS.md): soundness of the tick lower bound against real
// engine runs on every Table 15 configuration, provable tightness on
// hand-crafted straight-line graphs, the JF-E008/W103 resource rules,
// deadlock proofs (including the JF-W101 token-covered back edge that
// JF-E004 cannot certify), refutation of hand-crafted deadlocking
// graphs, the cross-validation rule JF-E010, the corpus-wide acceptance
// runs of each analyzer, and the sweep's per-cell bound checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/figure_of_merit.hpp"
#include "analysis/lint.hpp"
#include "analysis/model_check.hpp"
#include "bytecode/assembler.hpp"
#include "bytecode/verifier.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::analysis {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using fabric::DataflowGraph;
using fabric::Edge;

// Same fixtures as tests/test_lint.cpp: a straight-line add and a
// counting loop whose backward branch spans the whole body.
bytecode::Method straight_line(Program& p) {
  Assembler a(p, "bounds.straight()I", "test");
  a.returns(ValueType::Int);
  a.iconst(2).iconst(3).op(Op::iadd).op(Op::ireturn);
  return a.build();
}

bytecode::Method counting_loop(Program& p) {
  Assembler a(p, "bounds.loop(I)I", "test");
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
  DataflowGraph graph;
};

Built build(Program& p, bytecode::Method m) {
  Built b;
  b.method = std::move(m);
  const bytecode::VerifyResult vr = bytecode::verify(b.method, p.pool);
  EXPECT_TRUE(vr.ok) << vr.error;
  b.graph = fabric::build_dataflow_graph(b.method, p.pool);
  return b;
}

// The plan the bound analyzer reads: the method placed on a fresh fabric
// built from `config`.
sim::ExecPlan lower(const Built& b, const sim::MachineConfig& config) {
  sim::ExecPlan plan =
      sim::ExecPlanBuilder().build(b.method, b.graph, nullptr, config);
  EXPECT_TRUE(plan.fits()) << config.name;
  return plan;
}

void reindex(DataflowGraph& g, std::size_t n) {
  g.consumers_of.assign(n, {});
  for (const Edge& e : g.edges) {
    g.consumers_of[static_cast<std::size_t>(e.producer)].push_back(e);
  }
}

// Computes bounds and runs the engine on the SAME plan so measured ticks
// and buffer high-water marks are directly comparable.
struct CellResult {
  MethodBounds bounds;
  sim::RunMetrics metrics;
  obs::MetricsRegistry registry;
};

CellResult run_cell(const Built& b, const sim::MachineConfig& config,
                    sim::BranchPredictor::Scenario scenario =
                        sim::BranchPredictor::Scenario::BP1) {
  CellResult r;
  const sim::ExecPlan plan = lower(b, config);
  r.bounds = compute_bounds(b.method, plan);
  sim::EngineOptions options;
  options.metrics = &r.registry;
  sim::Engine engine(config, options);
  sim::BranchPredictor predictor(scenario);
  r.metrics = engine.run(b.method, plan, predictor);
  return r;
}

// ---- timing bound: soundness and tightness ----

TEST(BoundsTiming, LowerBoundIsSoundOnEveryConfiguration) {
  Program p;
  const Built b = build(p, straight_line(p));
  for (const sim::MachineConfig& config : sim::table15_configs()) {
    const CellResult r = run_cell(b, config);
    ASSERT_TRUE(r.metrics.completed) << config.name;
    ASSERT_TRUE(r.bounds.valid) << config.name;
    EXPECT_GT(r.bounds.lower_bound_ticks, 0) << config.name;
    EXPECT_LE(r.bounds.lower_bound_ticks, r.metrics.ticks) << config.name;
  }
}

TEST(BoundsTiming, StraightLineBoundIsTight) {
  // On a straight-line method the serial chain *is* the critical path:
  // the fixpoint must land exactly on the engine's tick count, on the
  // collapsed Baseline and on a real serial/mesh layout alike.
  Program p;
  const Built b = build(p, straight_line(p));
  for (const char* name : {"Baseline", "Compact2"}) {
    const CellResult r = run_cell(b, sim::config_by_name(name));
    ASSERT_TRUE(r.metrics.completed) << name;
    EXPECT_EQ(r.bounds.lower_bound_ticks, r.metrics.ticks) << name;
  }
}

TEST(BoundsTiming, LoopBoundIsSoundUnderBothScenarios) {
  // The static analysis reasons about one epoch per node; the loop
  // re-fires its body, so the measured count must dominate the bound by
  // a wide margin without ever dipping under it.
  Program p;
  const Built b = build(p, counting_loop(p));
  for (const sim::MachineConfig& config : sim::table15_configs()) {
    for (const auto scenario : {sim::BranchPredictor::Scenario::BP1,
                                sim::BranchPredictor::Scenario::BP2}) {
      const CellResult r = run_cell(b, config, scenario);
      ASSERT_TRUE(r.metrics.completed) << config.name;
      ASSERT_TRUE(r.bounds.valid) << config.name;
      EXPECT_LE(r.bounds.lower_bound_ticks, r.metrics.ticks) << config.name;
    }
  }
}

TEST(BoundsTiming, PerNodeFireTicksAreMonotoneAlongTheChain) {
  // Earliest-fire ticks of a straight-line method grow monotonically:
  // node i+1 cannot fire before its HEAD token leaves node i.
  Program p;
  const Built b = build(p, straight_line(p));
  const sim::MachineConfig config = sim::config_by_name("Compact2");
  const CellResult r = run_cell(b, config);
  ASSERT_EQ(r.bounds.nodes.size(), b.method.code.size());
  for (std::size_t i = 1; i < r.bounds.nodes.size(); ++i) {
    EXPECT_LT(r.bounds.nodes[i - 1].fire, r.bounds.nodes[i].fire) << i;
    EXPECT_LE(r.bounds.nodes[i].head, r.bounds.nodes[i].fire) << i;
    EXPECT_LE(r.bounds.nodes[i].fire, r.bounds.nodes[i].done) << i;
  }
}

// ---- resource bounds: JF-E008 / JF-W103 ----

TEST(BoundsResources, TinyCapacityTriggersE008) {
  Program p;
  const Built b = build(p, straight_line(p));
  const sim::MachineConfig config = sim::config_by_name("Compact2");
  const MethodBounds bounds = compute_bounds(b.method, lower(b, config));

  LintOptions options;
  options.node_buffer_capacity = 1;  // iadd provably needs 2 operands
  LintReport report;
  lint_bounds(b.method, config, bounds, options, report);
  ASSERT_TRUE(report.has(LintRule::BufferBoundOverflow)) << to_text(report);
  EXPECT_EQ(lint_rule_id(LintRule::BufferBoundOverflow), "JF-E008");
  EXPECT_FALSE(report.clean());

  // Roomy capacity: both rules stay silent.
  LintReport roomy;
  lint_bounds(b.method, config, bounds, {}, roomy);
  EXPECT_TRUE(roomy.findings.empty()) << to_text(roomy);
}

TEST(BoundsResources, MergeFanInAboveCapacityWarnsW103) {
  // A DataFlow merge makes the occupancy interval [pop, in-edges] wide:
  // with capacity == pop the overflow is possible but not certain, which
  // is exactly the JF-W103 severity split. A branch diamond gives the
  // join's consumer two forward producers on one side.
  Program p;
  Assembler a(p, "bounds.pick(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto els = a.new_label();
  auto join = a.new_label();
  a.iload(0).ifgt(els);     // 0,1
  a.iconst(1).goto_(join);  // 2,3
  a.bind(els);
  a.iconst(2);              // 4
  a.bind(join);
  a.op(Op::ireturn);        // 5: merged side, two producers
  Built b = build(p, a.build());

  const sim::MachineConfig config = sim::config_by_name("Compact2");
  const MethodBounds bounds = compute_bounds(b.method, lower(b, config));
  ASSERT_GT(bounds.operand_hi.size(), 5u);
  ASSERT_GE(bounds.operand_hi[5], 2);  // ireturn@5 has two producers

  LintOptions options;
  options.node_buffer_capacity = 1;
  LintReport report;
  lint_bounds(b.method, config, bounds, options, report);
  EXPECT_TRUE(report.has(LintRule::BoundUnproven)) << to_text(report);
  EXPECT_EQ(lint_rule_id(LintRule::BoundUnproven), "JF-W103");

  LintOptions no_warn = options;
  no_warn.warnings = false;
  LintReport silent;
  lint_bounds(b.method, config, bounds, no_warn, silent);
  EXPECT_FALSE(silent.has(LintRule::BoundUnproven)) << to_text(silent);
}

TEST(BoundsResources, TokenBufferBoundDominatesMeasuredHighWater) {
  // The §6.3 token-conservation argument: a control node never buffers
  // more than bundle + transient duplicates. The measured per-node high
  // water of a real run must sit at or below the static bound.
  Program p;
  const Built b = build(p, counting_loop(p));
  for (const sim::MachineConfig& config : sim::table15_configs()) {
    const CellResult r = run_cell(b, config);
    ASSERT_TRUE(r.metrics.completed) << config.name;
    for (std::size_t phys = 0; phys < r.registry.buffer_hwm_by_node.size();
         ++phys) {
      const auto hwm =
          static_cast<std::int32_t>(r.registry.buffer_hwm_by_node[phys]);
      if (hwm == 0) continue;
      EXPECT_LE(hwm,
                r.bounds.token_hi_at_phys(static_cast<std::int32_t>(phys)))
          << config.name << " phys " << phys;
    }
  }
}

// ---- cross-validation: JF-E010 ----

TEST(BoundsCrossValidation, ImpossiblyFastMetricsTriggerE010) {
  Program p;
  const Built b = build(p, straight_line(p));
  const sim::MachineConfig config = sim::config_by_name("Baseline");
  const CellResult real = run_cell(b, config);
  ASSERT_GT(real.bounds.lower_bound_ticks, 1);

  sim::RunMetrics doctored = real.metrics;
  doctored.ticks = real.bounds.lower_bound_ticks - 1;
  LintReport report;
  check_metrics_against_bounds(b.method.name, config.name, "BP1", doctored,
                               nullptr, real.bounds, report);
  ASSERT_TRUE(report.has(LintRule::BoundViolation)) << to_text(report);
  EXPECT_EQ(lint_rule_id(LintRule::BoundViolation), "JF-E010");
  EXPECT_FALSE(report.clean());

  // The genuine measurement passes both directions.
  LintReport clean;
  check_metrics_against_bounds(b.method.name, config.name, "BP1",
                               real.metrics, &real.registry, real.bounds,
                               clean);
  EXPECT_TRUE(clean.findings.empty()) << to_text(clean);
}

TEST(BoundsCrossValidation, OverfullBufferHighWaterTriggersE010) {
  Program p;
  const Built b = build(p, counting_loop(p));
  const sim::MachineConfig config = sim::config_by_name("Compact2");
  const CellResult real = run_cell(b, config);

  obs::MetricsRegistry doctored;
  doctored.buffer_hwm_by_node.assign(
      real.registry.buffer_hwm_by_node.size(), 0);
  // Claim one physical node buffered far beyond any provable bound.
  doctored.buffer_hwm_by_node[0] = 10000;
  for (std::size_t i = 1; i < doctored.buffer_hwm_by_node.size(); ++i) {
    doctored.buffer_hwm_by_node[i] = real.registry.buffer_hwm_by_node[i];
  }
  LintReport report;
  check_metrics_against_bounds(b.method.name, config.name, "BP1",
                               real.metrics, &doctored, real.bounds, report);
  EXPECT_TRUE(report.has(LintRule::BoundViolation)) << to_text(report);
}

// ---- model checker ----

TEST(ModelCheck, ProvesStraightLineAndLoop) {
  Program p;
  const Built line = build(p, straight_line(p));
  const ModelCheckResult r1 = model_check(line.method, line.graph);
  EXPECT_EQ(r1.verdict, ModelVerdict::Proved)
      << model_verdict_name(r1.verdict) << " " << r1.witness;

  const Built loop = build(p, counting_loop(p));
  const ModelCheckResult r2 = model_check(loop.method, loop.graph);
  EXPECT_EQ(r2.verdict, ModelVerdict::Proved)
      << model_verdict_name(r2.verdict) << " " << r2.witness;
  EXPECT_GT(r2.states_explored, r1.states_explored);
}

TEST(ModelCheck, TokenCoveredBackEdgeIsProvedWhereE004IsConservative) {
  // The JF-W101 graph from tests/test_lint.cpp: a back edge inside the
  // loop interval that the token bundle re-arms each iteration. JF-E004
  // can only warn; the model checker proves it deadlock-free.
  Program p;
  Built b = build(p, counting_loop(p));
  Edge back;
  back.producer = 5;
  back.consumer = 3;
  back.side = 1;
  back.back = true;
  back.merge = true;
  b.graph.edges.push_back(back);
  for (Edge& e : b.graph.edges) {
    if (e.consumer == 3 && e.side == 1) e.merge = true;
  }
  reindex(b.graph, b.method.code.size());

  const ModelCheckResult r = model_check(b.method, b.graph);
  EXPECT_EQ(r.verdict, ModelVerdict::Proved)
      << model_verdict_name(r.verdict) << " " << r.witness;
  LintReport report;
  lint_model_check(b.method, r, {}, report);
  EXPECT_TRUE(report.findings.empty()) << to_text(report);
}

TEST(ModelCheck, UntokenizedCycleDeadlocks) {
  // The JF-E004 graph: a back edge with no backward control transfer.
  // The consumer waits forever on an operand produced only after it
  // fires; the checker must find the stuck state and name the node.
  Program p;
  Built b = build(p, straight_line(p));
  Edge back;
  back.producer = 2;
  back.consumer = 1;
  back.side = 1;
  back.back = true;
  b.graph.edges.push_back(back);
  reindex(b.graph, b.method.code.size());

  const ModelCheckResult r = model_check(b.method, b.graph);
  ASSERT_EQ(r.verdict, ModelVerdict::Deadlock) << r.witness;
  EXPECT_GE(r.deadlock_node, 0);
  EXPECT_FALSE(r.witness.empty());

  LintReport report;
  lint_model_check(b.method, r, {}, report);
  ASSERT_TRUE(report.has(LintRule::TokenDeadlock)) << to_text(report);
  EXPECT_EQ(lint_rule_id(LintRule::TokenDeadlock), "JF-E009");
  EXPECT_FALSE(report.clean());
}

TEST(ModelCheck, StarvedOperandSideDeadlocks) {
  // Dropping every producer of iadd@2 side 1 (the JF-E001 corruption)
  // must also be caught dynamically: the abstract bundle reaches the
  // Return but the unfired iadd can never be served.
  Program p;
  Built b = build(p, straight_line(p));
  std::erase_if(b.graph.edges, [](const Edge& e) {
    return e.consumer == 2 && e.side == 1;
  });
  reindex(b.graph, b.method.code.size());

  const ModelCheckResult r = model_check(b.method, b.graph);
  EXPECT_EQ(r.verdict, ModelVerdict::Deadlock) << r.witness;
}

TEST(ModelCheck, TinyStateBudgetIsInconclusiveNeverWrong) {
  Program p;
  const Built b = build(p, counting_loop(p));
  ModelCheckOptions options;
  options.max_states = 1;
  const ModelCheckResult r = model_check(b.method, b.graph, options);
  EXPECT_EQ(r.verdict, ModelVerdict::Inconclusive);
  LintReport report;
  lint_model_check(b.method, r, {}, report);
  EXPECT_TRUE(report.has(LintRule::BoundUnproven)) << to_text(report);
  EXPECT_TRUE(report.clean());  // warning severity only
}

// ---- corpus-wide acceptance ----
//
// lint_corpus runs both analyzers in its one walk (tests/test_lint.cpp);
// these drive each analyzer on its own, so a corpus-wide regression is
// pinned to the analyzer rather than to the driver.

TEST(BoundsCorpus, FullCorpusIsCleanOnEveryConfiguration) {
  const workloads::Corpus corpus = workloads::make_corpus({});
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  sim::ExecPlanBuilder builder;
  sim::ExecPlan plan;
  LintReport report;
  std::size_t lowered = 0;
  for (const bytecode::Method& m : corpus.program.methods) {
    const DataflowGraph graph =
        fabric::build_dataflow_graph(m, corpus.program.pool);
    for (const sim::MachineConfig& config : configs) {
      builder.build_into(plan, m, graph, nullptr, config);
      ASSERT_TRUE(plan.fits()) << m.name << " on " << config.name;
      lint_bounds(m, config, compute_bounds(m, plan), {}, report);
      ++lowered;
    }
  }
  EXPECT_EQ(report.errors, 0) << to_text(report);
  EXPECT_EQ(report.warnings, 0) << to_text(report);
  EXPECT_EQ(lowered, corpus.program.methods.size() * configs.size());
}

TEST(BoundsCorpus, ParallelAndSerialReportsAgree) {
  // One-operand buffers make the bound analyzer flag (JF-E008) the nodes
  // that provably need two, so serial and parallel walks must agree on
  // real bound findings, each computed on a plan lowered into a worker's
  // own scratch.
  workloads::CorpusOptions options;
  options.total_methods = 120;
  const workloads::Corpus corpus = workloads::make_corpus(options);
  const std::vector<sim::MachineConfig> configs = {
      sim::config_by_name("Compact2")};
  LintOptions lint;
  lint.node_buffer_capacity = 1;
  const LintReport serial =
      lint_corpus(corpus.program, configs, lint, /*threads=*/1);
  const LintReport parallel =
      lint_corpus(corpus.program, configs, lint, /*threads=*/4);
  ASSERT_TRUE(serial.has(LintRule::BufferBoundOverflow))
      << to_summary(serial);
  EXPECT_EQ(serial.findings, parallel.findings);
  EXPECT_EQ(serial.errors, parallel.errors);
  EXPECT_EQ(serial.warnings, parallel.warnings);
}

TEST(ModelCheckCorpus, FullCorpusProvesDeadlockFreedom) {
  const workloads::Corpus corpus = workloads::make_corpus({});
  LintReport report;
  std::size_t proved = 0;
  for (const bytecode::Method& m : corpus.program.methods) {
    const DataflowGraph graph =
        fabric::build_dataflow_graph(m, corpus.program.pool);
    const ModelCheckResult r = model_check(m, graph);
    if (r.verdict == ModelVerdict::Proved) ++proved;
    lint_model_check(m, r, {}, report);
  }
  EXPECT_EQ(report.errors, 0) << to_text(report);
  EXPECT_EQ(report.warnings, 0) << to_text(report);
  EXPECT_EQ(proved, corpus.program.methods.size());
}

// ---- sweep integration: SweepOptions::check_bounds ----

TEST(SweepBounds, StridedCorpusSweepValidatesBothDirections) {
  // Every executed cell asserts lower_bound <= ticks AND measured buffer
  // high water <= static token bound, on all six configurations under
  // both branch scenarios. Any violation would land as JF-E010.
  const workloads::Corpus corpus = workloads::make_corpus({});
  std::vector<const bytecode::Method*> methods;
  for (const auto& m : corpus.program.methods) methods.push_back(&m);

  SweepOptions options;
  options.stride = 16;
  options.threads = 0;
  options.allow_oversubscribe = true;
  options.check_bounds = true;
  const Sweep sweep = run_sweep(methods, corpus.program.pool, {}, options);
  EXPECT_FALSE(sweep.samples.empty());
  EXPECT_EQ(sweep.lint_errors, 0) << to_text(LintReport{
      sweep.lint_findings, sweep.lint_errors, sweep.lint_warnings, 0, 0});
}

TEST(SweepBounds, CacheServedCellsAreStillChecked) {
  // A warm read-mode sweep serves whole methods from the record; bounds
  // mode must still assert the ticks direction on those cached cells
  // (the JF-E010 replay check).
  const std::string dir =
      ::testing::TempDir() + "javaflow_bounds_cache";
  std::filesystem::remove_all(dir);

  const workloads::Corpus corpus = workloads::make_corpus({});
  std::vector<const bytecode::Method*> methods;
  for (const auto& m : corpus.program.methods) methods.push_back(&m);

  SweepOptions options;
  options.stride = 128;
  options.threads = 0;
  options.allow_oversubscribe = true;
  options.cache = cache::CacheMode::ReadWrite;
  options.cache_dir = dir;
  const Sweep cold = run_sweep(methods, corpus.program.pool, {}, options);
  EXPECT_GT(cold.cache.stored_records, 0u);

  options.check_bounds = true;
  options.cache = cache::CacheMode::Read;
  const Sweep warm = run_sweep(methods, corpus.program.pool, {}, options);
  EXPECT_GT(warm.cache.hit_cells, 0u);
  EXPECT_EQ(warm.lint_errors, 0) << to_text(LintReport{
      warm.lint_findings, warm.lint_errors, warm.lint_warnings, 0, 0});
  EXPECT_EQ(warm.samples.size(), cold.samples.size());
  std::filesystem::remove_all(dir);
}

TEST(SweepBounds, LowerBoundsMatchTheAnalyzer) {
  // Every Sweep::lower_bounds entry is compute_bounds() on the cell's
  // (method, config) plan — checked here against plans lowered
  // independently of the sweep, on computed, deduplicated and
  // cache-served cells alike.
  const workloads::Corpus corpus = workloads::make_corpus({});
  const bytecode::ConstantPool& pool = corpus.program.pool;
  std::vector<const bytecode::Method*> methods;
  for (std::size_t i = 0; i < corpus.program.methods.size(); i += 64) {
    methods.push_back(&corpus.program.methods[i]);
  }
  // A byte-identical body under another name: dedup fills its cells
  // from its leader's.
  bytecode::Method twin = *methods[1];
  twin.name = "twin." + twin.name;
  methods.push_back(&twin);

  const std::string dir = ::testing::TempDir() + "javaflow_bounds_lower";
  std::filesystem::remove_all(dir);
  SweepOptions options;
  options.threads = 2;
  options.allow_oversubscribe = true;
  options.check_bounds = true;
  options.cache = cache::CacheMode::ReadWrite;
  options.cache_dir = dir;
  const Sweep cold = run_sweep(methods, pool, {}, options);
  options.cache = cache::CacheMode::Read;
  const Sweep warm = run_sweep(methods, pool, {}, options);
  std::filesystem::remove_all(dir);
  EXPECT_GT(cold.cache.dedup_cells, 0u);
  EXPECT_EQ(warm.cache.miss_cells, 0u);
  EXPECT_GT(warm.cache.hit_cells, 0u);
  EXPECT_EQ(warm.samples, cold.samples);
  ASSERT_EQ(cold.lower_bounds.size(), cold.samples.size());
  ASSERT_EQ(warm.lower_bounds.size(), warm.samples.size());

  const std::size_t n_scenarios = SweepOptions::scenarios.size();
  const std::size_t per_method = cold.configs.size() * n_scenarios;
  ASSERT_EQ(cold.samples.size(), methods.size() * per_method);
  std::size_t proven = 0;
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    const bytecode::Method& m = *methods[mi];
    const DataflowGraph graph = fabric::build_dataflow_graph(m, pool);
    for (std::size_t ci = 0; ci < cold.configs.size(); ++ci) {
      const sim::MachineConfig& config = cold.configs[ci];
      const fabric::Fabric f(config.fabric_options());
      const fabric::Placement placement = fabric::load_method(f, m);
      const sim::ExecPlan plan =
          sim::ExecPlanBuilder().build(m, graph, &placement, config);
      const MethodBounds bounds = compute_bounds(m, plan);
      const std::int64_t want =
          bounds.valid ? bounds.lower_bound_ticks : kNoBound;
      if (want < kNoBound) ++proven;
      for (std::size_t si = 0; si < n_scenarios; ++si) {
        const std::size_t cell = mi * per_method + ci * n_scenarios + si;
        EXPECT_EQ(cold.lower_bounds[cell], want)
            << m.name << " on " << config.name;
        EXPECT_EQ(warm.lower_bounds[cell], want)
            << m.name << " on " << config.name;
      }
    }
  }
  EXPECT_GT(proven, 0u);
}

}  // namespace
}  // namespace javaflow::analysis
