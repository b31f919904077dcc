// Golden references: the simulator's behaviour contract, pinned as
// constants. Every value below was captured from the engine and must
// not move on a refactor or a speed-only change. A deliberate change to
// simulation semantics re-captures them (and bumps the cache
// fingerprints) in the same commit.
//
//   * a digest of all 14 RunMetrics fields of every full-corpus cell
//     (1605 methods × 6 Table 15 configs × 2 scenarios);
//   * the stride-32 attribution snapshot, byte for byte against the
//     committed bench/reference_stride32.jfs;
//   * the telemetry registry (MetricsRegistry JSON) of the runs a
//     stride-32 sweep makes;
//   * Chrome-trace JSON of a loop program on every config × scenario,
//     and that explain_method's run records the same trace and registry;
//   * RunMetrics and traces of runs whose events spill past the
//     calendar ring and of runs cut by the tick budget;
//   * the result-cache engine-options digest, so cached cells keep
//     their keys.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/explain.hpp"
#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "cache/hash.hpp"
#include "cache/key.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using Scenario = sim::BranchPredictor::Scenario;

const workloads::Corpus& corpus() {
  static const workloads::Corpus c = workloads::make_corpus({});
  return c;
}

std::vector<const bytecode::Method*> corpus_methods() {
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus().program.methods) {
    methods.push_back(&m);
  }
  return methods;
}

void hash_metrics(cache::Hasher& h, const sim::RunMetrics& m) {
  for (const bool flag : {m.fits, m.completed, m.timed_out, m.exception}) {
    h.boolean(flag);
  }
  for (const std::int64_t v :
       {m.ticks, m.mesh_cycles, m.instructions_fired,
        std::int64_t{m.distinct_fired}, std::int64_t{m.static_size},
        std::int64_t{m.max_slot}, m.mesh_messages, m.serial_messages,
        m.ticks_exec_1plus, m.ticks_exec_2plus}) {
    h.i64(v);
  }
}

std::string metrics_digest(const sim::RunMetrics& m) {
  cache::Hasher h;
  hash_metrics(h, m);
  return cache::to_hex(h.digest());
}

// ---- full corpus ----

TEST(Golden, FullCorpusRunMetricsDigest) {
  analysis::SweepOptions options;
  options.threads = 0;
  const analysis::Sweep sweep =
      analysis::run_sweep(corpus_methods(), corpus().program.pool, {},
                          options);
  ASSERT_EQ(sweep.samples.size(), 19260u);
  cache::Hasher h;
  for (const analysis::SweepSample& s : sweep.samples) {
    hash_metrics(h, s.metrics);
  }
  EXPECT_EQ(cache::to_hex(h.digest()), "51b9a332c6ff3b1742a6db2e13c19a86");
}

// ---- stride 32 ----

TEST(Golden, Stride32SnapshotMatchesCommittedReference) {
  std::ifstream in(JAVAFLOW_SOURCE_DIR "/bench/reference_stride32.jfs",
                   std::ios::binary);
  ASSERT_TRUE(in) << "bench/reference_stride32.jfs";
  const std::string reference{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  analysis::SnapshotBuildOptions options;
  options.stride = 32;
  options.threads = 0;
  const std::string bytes =
      obs::serialize_snapshot(analysis::build_snapshot(corpus(), options));
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.size(), reference.size());
  EXPECT_TRUE(bytes == reference);
}

// One registry attached to the six Table 15 engines records the runs a
// stride-32 sweep makes: the first of each distinct method body among
// every 32nd corpus method, on every config under both scenarios.
TEST(Golden, Stride32MetricsRegistryJson) {
  obs::MetricsRegistry registry;
  sim::EngineOptions engine_options;
  engine_options.metrics = &registry;
  std::vector<sim::Engine> engines;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    engines.emplace_back(cfg, engine_options);
  }
  const std::vector<bytecode::Method>& methods = corpus().program.methods;
  std::set<cache::Hash128> bodies;
  for (std::size_t i = 0; i < methods.size(); i += 32) {
    if (!bodies.insert(cache::hash_method_body(methods[i])).second) continue;
    const fabric::DataflowGraph graph =
        fabric::build_dataflow_graph(methods[i], corpus().program.pool);
    for (sim::Engine& engine : engines) {
      for (const Scenario scenario : analysis::SweepOptions::scenarios) {
        sim::BranchPredictor predictor(scenario);
        engine.run(methods[i], graph, predictor);
      }
    }
  }
  std::ostringstream os;
  registry.write_json(os);
  EXPECT_EQ(cache::to_hex(cache::hash_bytes(os.str())),
            "910209d1a7462c32e289d72aec243125");
}

// ---- single runs of a loop program ----

// A loop over an array load: backward transfer, TAIL replay, memory
// ordering, mesh traffic — the full §6.3 event mix.
Program loop_program() {
  Program p;
  Assembler a(p, "plan.loop(IA)I", "plan");
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

struct TracedRun {
  sim::RunMetrics metrics;
  std::string trace_digest;  // of the Chrome-trace JSON
};

TracedRun traced_run(const sim::MachineConfig& cfg, Scenario scenario,
                     std::int64_t max_ticks = 4'000'000) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  obs::EventTracer tracer;
  sim::EngineOptions options;
  options.max_ticks = max_ticks;
  options.tracer = &tracer;
  sim::Engine engine(cfg, options);
  sim::BranchPredictor predictor(scenario);
  TracedRun out;
  out.metrics = engine.run(p.methods[0], graph, predictor);
  obs::TraceMeta meta;
  meta.method = p.methods[0].name;
  meta.config = cfg.name;
  meta.scenario = scenario == Scenario::BP1 ? "BP-1" : "BP-2";
  meta.serial_per_mesh = cfg.serial_per_mesh;
  meta.node_labels.assign(p.methods[0].code.size(), "n");
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer, meta);
  out.trace_digest = cache::to_hex(cache::hash_bytes(os.str()));
  return out;
}

TEST(Golden, LoopTraceJsonOnEveryConfigAndScenario) {
  // Table 15 order, BP-1 then BP-2 per config.
  const std::array<const char*, 12> kTrace = {
      "03c070ed18f60d275c249e36e7282be0", "b520a986c91980503f5f8ed16da77077",
      "3e2c5458cc3d078c0ddf00c3ee33c8cf", "9cf357bc0b14d821bad1f556ef2b6f8e",
      "e41c43533f803b2b29a418ffb682d79e", "f8e1dee827423406641c7e3aeb58b423",
      "3c1e684f809cd9c61b8e809bb91d1719", "b7c596b350213d199fe75237e998b3c6",
      "c4e70f4c517e33185ed9fc3472383f1f", "d4db6bf8a635573d248305e3320d8556",
      "dc2512fd4463b23a1365f0458cc44981", "b8181e67a2f8034f00a43a05a8be07d0"};
  std::size_t i = 0;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    for (const Scenario scenario : {Scenario::BP1, Scenario::BP2}) {
      const TracedRun run = traced_run(cfg, scenario);
      ASSERT_TRUE(run.metrics.completed) << cfg.name;
      EXPECT_EQ(run.trace_digest, kTrace[i]) << cfg.name << " " << i;
      ++i;
    }
  }
}

// explain_method carries the tracer and the registry on its own
// flight-recorded run: they record exactly what a run with only those two
// hooks records, the hooks change neither RunMetrics nor the
// attribution, and the attribution still validates.
TEST(ExplainHooks, TraceAndRegistryMatchAHooksOnlyRun) {
  const Program p = loop_program();
  const bytecode::Method& m = p.methods[0];
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  auto json = [&](const obs::EventTracer& tracer,
                  const obs::MetricsRegistry& registry) {
    obs::TraceMeta meta;
    meta.method = m.name;
    meta.node_labels.assign(m.code.size(), "n");
    std::ostringstream os;
    obs::write_chrome_trace(os, tracer, meta);
    registry.write_json(os);
    return os.str();
  };
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    for (const Scenario scenario : {Scenario::BP1, Scenario::BP2}) {
      obs::EventTracer tracer;
      obs::MetricsRegistry registry;
      sim::EngineOptions options;
      options.tracer = &tracer;
      options.metrics = &registry;
      sim::Engine engine(cfg, options);
      sim::BranchPredictor predictor(scenario);
      const sim::RunMetrics hooked = engine.run(m, graph, predictor);

      obs::EventTracer ex_tracer;
      obs::MetricsRegistry ex_registry;
      const analysis::Explanation ex = analysis::explain_method(
          m, p.pool, cfg, scenario, &ex_tracer, &ex_registry);
      const analysis::Explanation plain =
          analysis::explain_method(m, p.pool, cfg, scenario);
      ASSERT_TRUE(ex.ok) << cfg.name << ": " << ex.error;
      EXPECT_TRUE(ex.attribution.valid) << cfg.name;
      EXPECT_EQ(ex.attribution.ticks, ex.metrics.ticks) << cfg.name;
      EXPECT_EQ(ex.metrics, hooked) << cfg.name;
      EXPECT_EQ(ex.metrics, plain.metrics) << cfg.name;
      EXPECT_EQ(ex.attribution, plain.attribution) << cfg.name;
      EXPECT_EQ(json(ex_tracer, ex_registry), json(tracer, registry))
          << cfg.name;
    }
  }
}

// Ring latencies far past the largest calendar ring push every
// MemoryRead ServiceDone (and every GPP service) through the overflow
// spill.
TEST(Golden, EventsBeyondTheRingStayOrdered) {
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  cfg.ring.gpp_service = 250'000;
  const TracedRun run = traced_run(cfg, Scenario::BP1);
  ASSERT_TRUE(run.metrics.completed);
  ASSERT_GT(run.metrics.ticks, 100'000);  // the slow ring dominated
  EXPECT_EQ(metrics_digest(run.metrics), "b71adcbfcc4bb19f1228b4db9270c156");
  EXPECT_EQ(run.trace_digest, "71bdceb6b9900d87703e07a253e186b6");
}

TEST(Golden, TickBudgetAbort) {
  const std::array<const char*, 3> kMetrics = {
      "3c72f05c4a5b39761ce8f565c2e65063", "e9d1a54d5217c15e771d285a8b4dffcb",
      "e6a7f7696457086b1a828502ca86463e"};
  const std::array<const char*, 3> kTrace = {
      "371dcef9c583e2c8f784a3ddc1373085", "b6d1c44e87e78aeb2385de5a86592e74",
      "a5813fa620c2919de4813904f87f9918"};
  std::size_t i = 0;
  for (const char* name : {"Baseline", "Compact10", "Compact2"}) {
    const TracedRun run =
        traced_run(sim::config_by_name(name), Scenario::BP1, 120);
    EXPECT_TRUE(run.metrics.timed_out) << name;
    EXPECT_EQ(metrics_digest(run.metrics), kMetrics[i]) << name;
    EXPECT_EQ(run.trace_digest, kTrace[i]) << name;
    ++i;
  }
}

// The budget runs out while the only pending events sit in the spill.
TEST(Golden, TickBudgetAbortInsideTheSpill) {
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  const TracedRun run = traced_run(cfg, Scenario::BP1, 50'000);
  EXPECT_TRUE(run.metrics.timed_out);
  EXPECT_EQ(metrics_digest(run.metrics), "b7efbec530228e661e9b70df34e281cb");
  EXPECT_EQ(run.trace_digest, "51becee89c130dc608c0458165e64c57");
}

TEST(Golden, EngineOptionsKeyBytes) {
  EXPECT_EQ(cache::to_hex(cache::hash_engine_options(
                sim::EngineOptions{},
                sim::resolve_scheduler(sim::SchedulerKind::Auto))),
            "88e5d7211ebca45f85e387605cabebaa");
}

}  // namespace
}  // namespace javaflow
