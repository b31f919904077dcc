// Pre-lowered execution plans (docs/PERF.md "Execution kernel").
//
// The plan is the one static substrate: its classification flags mark
// exactly the nodes they name, its route spans decompose MeshTransit
// attribution exactly as a mesh walk does, the bound analyzer reads it
// and stays sound against the engine, and one read-only ExecPlan serves
// any number of concurrent engines (the parallel sweep's cross-lane
// sharing; run this binary under TSan).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"
#include "obs/critpath.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- shared corpus ----

const workloads::Corpus& shared_corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

analysis::Sweep plan_sweep(int threads) {
  const workloads::Corpus& corpus = shared_corpus();
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }
  analysis::SweepOptions options;
  options.stride = 32;  // the CI smoke stride: a real corpus slice
  options.threads = threads;
  // Real worker threads even on small CI hosts, so several lanes lower
  // and run plans at once (and TSan can see them).
  options.allow_oversubscribe = threads > 1;
  return analysis::run_sweep(methods, corpus.program.pool, hot, options);
}

// kPlanLocal marks exactly the nodes that read or write a local
// register: the kernel's pass-through test for REGISTER tokens consults
// the register lane only behind it.
TEST(PlanFlags, LocalFlagMarksExactlyTheLocalAccessNodes) {
  const workloads::Corpus& corpus = shared_corpus();
  const sim::MachineConfig config = sim::config_by_name("Compact2");
  sim::ExecPlanBuilder builder;
  sim::ExecPlan plan;
  std::size_t local_nodes = 0;
  std::size_t other_nodes = 0;
  for (const bytecode::Method& m : corpus.program.methods) {
    const fabric::DataflowGraph graph =
        fabric::build_dataflow_graph(m, corpus.program.pool);
    builder.build_into(plan, m, graph, nullptr, config);
    if (!plan.fits()) continue;
    for (std::int32_t i = 0; i < plan.node_count(); ++i) {
      const bytecode::Group g = m.code[static_cast<std::size_t>(i)].group();
      const bool local = g == bytecode::Group::LocalRead ||
                         g == bytecode::Group::LocalInc ||
                         g == bytecode::Group::LocalWrite;
      EXPECT_EQ((plan.flags()[i] & sim::kPlanLocal) != 0, local)
          << m.name << " node " << i;
      if (local) {
        ++local_nodes;
        EXPECT_GE(plan.local_reg()[i], 0) << m.name << " node " << i;
      } else {
        ++other_nodes;
      }
    }
  }
  EXPECT_GT(local_nodes, 0u);
  EXPECT_GT(other_nodes, 0u);
}

// Each parallel lane lowers its methods' plans into its own scratch and
// reuses that storage from method to method; the result must match the
// serial sweep exactly (and running this under TSan proves the lanes
// share nothing mutable).
TEST(PlanSharing, SerialAndParallelSweepsMatch) {
  const analysis::Sweep serial = plan_sweep(1);
  const analysis::Sweep parallel = plan_sweep(4);
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    ASSERT_EQ(serial.samples[i], parallel.samples[i]) << "sample " << i;
  }
}

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

// ---- attribution link decomposition ----

// AttributeOptions::plan replays the plan's precomputed X-Y route spans
// instead of walking net::MeshNetwork; the per-link tick map must agree
// exactly.
TEST(PlanEquality, LinkDecompositionMatchesMeshWalk) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const fabric::Fabric fab(cfg.fabric_options());
    const fabric::Placement placement =
        fabric::load_method(fab, p.methods[0]);
    sim::ExecPlanBuilder builder;
    const sim::ExecPlan plan =
        builder.build(p.methods[0], graph, &placement, cfg);

    obs::FlightRecorder flight;
    sim::EngineOptions options;
    options.flight = &flight;
    sim::Engine engine(cfg, options);
    sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics metrics =
        engine.run(p.methods[0], plan, predictor);
    ASSERT_TRUE(metrics.completed) << cfg.name;

    obs::AttributeOptions mesh_opts;
    mesh_opts.mesh_width = cfg.width;
    mesh_opts.collapsed = cfg.collapsed();
    const obs::Attribution via_mesh = obs::attribute(flight, mesh_opts);

    obs::AttributeOptions plan_opts;
    plan_opts.plan = &plan;
    const obs::Attribution via_plan = obs::attribute(flight, plan_opts);

    ASSERT_TRUE(via_mesh.valid) << cfg.name;
    EXPECT_EQ(via_mesh, via_plan) << cfg.name;
  }
}

// ---- bound analyzer on the lowered image ----

// The bound analyzer reads the lowered image; its lower bound must stay
// sound against the engine running the same plan.
TEST(PlanBounds, LowerBoundStaysSoundAgainstTheEngine) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    sim::ExecPlanBuilder builder;
    const sim::ExecPlan plan =
        builder.build(p.methods[0], graph, nullptr, cfg);
    const analysis::MethodBounds bounds =
        analysis::compute_bounds(p.methods[0], plan);
    ASSERT_TRUE(bounds.valid) << cfg.name;

    sim::Engine engine(cfg);
    sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics metrics =
        engine.run(p.methods[0], plan, predictor);
    ASSERT_TRUE(metrics.completed) << cfg.name;
    EXPECT_LE(bounds.lower_bound_ticks, metrics.ticks) << cfg.name;
  }
}

// ---- plan sharing ----

// One plan object, several concurrent engines: the dedup-class sharing
// run_sweep does across worker lanes, reduced to its essence. Under
// TSan this proves the plan's read-only contract.
TEST(PlanSharing, OnePlanServesConcurrentEngines) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::config_by_name("Compact4");
  const fabric::Fabric fab(cfg.fabric_options());
  const fabric::Placement placement =
      fabric::load_method(fab, p.methods[0]);
  sim::ExecPlanBuilder builder;
  const sim::ExecPlan plan =
      builder.build(p.methods[0], graph, &placement, cfg);

  constexpr int kLanes = 4;
  constexpr int kRunsPerLane = 8;
  std::vector<sim::RunMetrics> results(kLanes);
  std::vector<std::thread> lanes;
  lanes.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      sim::Engine engine(cfg);  // engines are lane-private; the plan is not
      sim::RunMetrics last;
      for (int r = 0; r < kRunsPerLane; ++r) {
        sim::BranchPredictor predictor(
            sim::BranchPredictor::Scenario::BP1);
        last = engine.run(p.methods[0], plan, predictor);
      }
      results[static_cast<std::size_t>(lane)] = last;
    });
  }
  for (std::thread& t : lanes) t.join();
  for (int lane = 1; lane < kLanes; ++lane) {
    EXPECT_EQ(results[0], results[static_cast<std::size_t>(lane)]);
  }
  EXPECT_TRUE(results[0].completed);
}

// One engine, several methods: the graph overload lowers each call's
// method itself, so a repeated run reproduces the first and a second
// method through the same engine runs on its own plan.
TEST(PlanSharing, ReusedEngineLowersEachMethodItsOwnPlan) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::config_by_name("Compact10");
  sim::Engine engine(cfg);

  sim::BranchPredictor bp1(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics first = engine.run(p.methods[0], graph, bp1);
  sim::BranchPredictor bp1_again(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics again = engine.run(p.methods[0], graph, bp1_again);
  EXPECT_EQ(first, again);

  Program q;
  Assembler a(q, "plan.add(II)I", "plan");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iload(1).op(Op::iadd).op(Op::ireturn);
  q.methods.push_back(a.build());
  const fabric::DataflowGraph qgraph =
      fabric::build_dataflow_graph(q.methods[0], q.pool);
  sim::BranchPredictor bp1_q(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics other = engine.run(q.methods[0], qgraph, bp1_q);
  EXPECT_TRUE(other.completed);
  EXPECT_NE(other.ticks, again.ticks);
}

}  // namespace
}  // namespace javaflow
