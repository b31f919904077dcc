#include "analysis/explain.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <utility>

#include "analysis/bounds.hpp"
#include "bytecode/opcode.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"

namespace javaflow::analysis {

namespace {

std::string_view scenario_display_name(
    sim::BranchPredictor::Scenario s) noexcept {
  switch (s) {
    case sim::BranchPredictor::Scenario::BP1:
      return "BP-1";
    case sim::BranchPredictor::Scenario::BP2:
      return "BP-2";
    case sim::BranchPredictor::Scenario::Trace:
      return "Trace";
  }
  return "?";
}

}  // namespace

Explanation explain_method(const bytecode::Method& m,
                           const bytecode::ConstantPool& pool,
                           const sim::MachineConfig& config,
                           sim::BranchPredictor::Scenario scenario,
                           obs::EventTracer* tracer,
                           obs::MetricsRegistry* metrics) {
  Explanation ex;
  ex.method = m.name;
  ex.config = config.name;
  ex.scenario = std::string(scenario_display_name(scenario));

  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, pool);
  const fabric::Fabric fab(config.fabric_options());
  const fabric::Placement placement = fabric::load_method(fab, m);
  // One lowered image feeds everything below: the engine run, the mesh
  // link decomposition of the attribution, and the static lower bound
  // (docs/PERF.md "Execution kernel").
  sim::ExecPlanBuilder plan_builder;
  const sim::ExecPlan plan =
      plan_builder.build(m, graph, &placement, config);

  obs::FlightRecorder flight;
  sim::EngineOptions engine_options;
  engine_options.flight = &flight;
  engine_options.tracer = tracer;
  engine_options.metrics = metrics;
  sim::Engine engine(config, engine_options);
  sim::BranchPredictor predictor(scenario);
  ex.metrics = engine.run(m, plan, predictor);

  if (!ex.metrics.fits) {
    ex.error = "method does not fit on " + config.name;
    return ex;
  }
  if (ex.metrics.timed_out) {
    ex.error = "method timed out (tick budget exceeded)";
    return ex;
  }
  if (!ex.metrics.completed) {
    ex.error = "method did not complete";
    return ex;
  }

  obs::AttributeOptions ao;
  ao.detail = true;
  ao.plan = &plan;
  ex.attribution = obs::attribute(flight, ao);
  if (!ex.attribution.valid) {
    ex.error = "attribution chain did not validate";
    return ex;
  }
  if (ex.attribution.ticks != ex.metrics.ticks) {
    ex.error = "attributed ticks disagree with RunMetrics.ticks";
    return ex;
  }

  const MethodBounds bounds = compute_bounds(m, plan);
  if (bounds.valid && bounds.lower_bound_ticks < kNoBound) {
    ex.lower_bound_ticks = bounds.lower_bound_ticks;
  }
  ex.ok = true;
  return ex;
}

void write_explanation_text(std::ostream& os, const Explanation& ex,
                            const std::vector<std::string>& labels,
                            std::size_t max_steps) {
  char buf[256];
  os << ex.method << " on " << ex.config << " (" << ex.scenario << ")";
  if (!ex.ok) {
    os << ": " << ex.error << "\n";
    return;
  }
  std::snprintf(buf, sizeof buf,
                ": completed, %" PRId64 " ticks, %" PRId64 " firings\n",
                ex.metrics.ticks, ex.metrics.instructions_fired);
  os << buf;

  if (ex.lower_bound_ticks >= 0) {
    const std::int64_t slack = ex.metrics.ticks - ex.lower_bound_ticks;
    std::snprintf(buf, sizeof buf,
                  "static lower bound: %" PRId64 " ticks (slack %" PRId64
                  ", %.1f%% above bound)\n",
                  ex.lower_bound_ticks, slack,
                  ex.lower_bound_ticks > 0
                      ? 100.0 * static_cast<double>(slack) /
                            static_cast<double>(ex.lower_bound_ticks)
                      : 0.0);
    os << buf;
  } else {
    os << "static lower bound: (none proven)\n";
  }

  os << "attribution (categories sum to ticks):\n";
  for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
    const std::int64_t v = ex.attribution.category_ticks[c];
    std::snprintf(
        buf, sizeof buf, "  %-14s %10" PRId64 "  %5.1f%%\n",
        std::string(obs::path_category_name(
                        static_cast<obs::PathCategory>(c)))
            .c_str(),
        v,
        ex.metrics.ticks > 0 ? 100.0 * static_cast<double>(v) /
                                   static_cast<double>(ex.metrics.ticks)
                             : 0.0);
    os << buf;
  }

  auto node_name = [&](std::int32_t node) -> std::string {
    if (node < 0) return "(gpp)";
    const auto u = static_cast<std::size_t>(node);
    if (u < labels.size()) return labels[u];
    return std::to_string(node);
  };

  const std::vector<obs::PathStep>& steps = ex.attribution.steps;
  os << "critical path (" << steps.size() << " hops, injection first";
  if (max_steps != 0 && steps.size() > max_steps) {
    os << ", showing slowest " << max_steps;
  }
  os << "):\n";
  // Pick the slowest hops but keep execution order: collect indices of
  // the `max_steps` largest segments, then print them ascending.
  std::vector<std::size_t> order(steps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (max_steps != 0 && steps.size() > max_steps) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return steps[a].ticks() > steps[b].ticks();
                     });
    order.resize(max_steps);
    std::sort(order.begin(), order.end());
  }
  for (const std::size_t i : order) {
    const obs::PathStep& s = steps[i];
    std::snprintf(buf, sizeof buf, "  [%8" PRId64 " .. %8" PRId64
                  "] %6" PRId64 "  %-14s ",
                  s.from_tick, s.to_tick, s.ticks(),
                  std::string(obs::path_category_name(s.category)).c_str());
    os << buf << node_name(s.node);
    if (s.category == obs::PathCategory::Execution) {
      os << " ("
         << bytecode::op_name(static_cast<bytecode::Op>(s.opcode)) << ")";
    }
    if (s.from_phys >= 0 && s.to_phys >= 0) {
      os << " phys " << s.from_phys << "->" << s.to_phys;
    }
    os << "\n";
  }

  if (!ex.attribution.node_ticks.empty()) {
    // Top nodes by on-path ticks (slack concentrators).
    std::vector<std::pair<std::int64_t, std::int32_t>> top;
    for (const auto& [node, ticks] : ex.attribution.node_ticks) {
      top.emplace_back(ticks, node);
    }
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (top.size() > 8) top.resize(8);
    os << "hottest on-path nodes:\n";
    for (const auto& [ticks, node] : top) {
      std::snprintf(buf, sizeof buf, "  %10" PRId64 "  ", ticks);
      os << buf << node_name(node) << "\n";
    }
  }
}

obs::Snapshot build_snapshot(const workloads::Corpus& corpus,
                             const SnapshotBuildOptions& options) {
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0;
       i < corpus.kernel_methods && i < corpus.program.methods.size();
       ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }

  SweepOptions sweep_options;
  sweep_options.stride = options.stride;
  sweep_options.threads = options.threads;
  sweep_options.analyze = true;
  const Sweep sweep =
      run_sweep(methods, corpus.program.pool, hot, sweep_options);

  obs::Snapshot snap;
  snap.scheduler =
      std::string(sim::scheduler_name(sim::SchedulerKind::Calendar));
  snap.stride = options.stride;
  for (const sim::MachineConfig& cfg : sweep.configs) {
    snap.config_names.push_back(cfg.name);
    snap.config_texts.push_back(cfg.canonical_text());
  }

  snap.cells.reserve(sweep.samples.size());
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    const SweepSample& s = sweep.samples[i];
    obs::SnapshotCell cell;
    cell.method = s.method;
    cell.config_index = static_cast<std::int32_t>(s.config_index);
    cell.scenario = static_cast<std::uint8_t>(s.scenario);
    cell.fits = s.metrics.fits;
    cell.completed = s.metrics.completed;
    cell.timed_out = s.metrics.timed_out;
    cell.exception = s.metrics.exception;
    cell.ticks = s.metrics.ticks;
    if (sweep.attribution[i].valid) {
      cell.attributed = true;
      cell.category_ticks = sweep.attribution[i].category_ticks;
    }
    if (cell.fits && cell.completed && !cell.timed_out &&
        sweep.lower_bounds[i] < kNoBound) {
      cell.lower_bound = sweep.lower_bounds[i];
    }
    snap.cells.push_back(std::move(cell));
  }
  return snap;
}

}  // namespace javaflow::analysis
