#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <variant>

#include "sim/kernel.hpp"

namespace javaflow::sim {
namespace {

// The solo kernel, instrumented or not: fixed per Engine by its options,
// so the sweep's uninstrumented runs carry no hook branches at all.
using SoloKernel =
    std::variant<detail::Kernel<false, false>, detail::Kernel<true, false>>;

SoloKernel make_kernel(const MachineConfig& config,
                       const EngineOptions& options) {
  if (options.metrics != nullptr || options.tracer != nullptr ||
      options.flight != nullptr || options.inject_exception_at >= 0) {
    return SoloKernel(std::in_place_index<1>, config, options);
  }
  return SoloKernel(std::in_place_index<0>, config, options);
}

}  // namespace

struct detail::EngineWorkspace {
  EngineWorkspace(const MachineConfig& config, const EngineOptions& options)
      : kernel(make_kernel(config, options)) {}

  SoloKernel kernel;

  // Lowered-plan cache for the graph overloads: the plan for the most
  // recent method, keyed on address + size + name (so a recycled
  // allocation holding a different method cannot alias a stale plan)
  // plus a slot-lane equality check when the caller supplies an
  // external placement (the fabric manager re-places co-resident
  // methods, so the same method can legitimately arrive with different
  // slots). The builder's scratch and the plan's arena both grow
  // monotonically across rebuilds.
  const bytecode::Method* plan_method = nullptr;
  std::size_t plan_code_size = 0;
  std::string plan_name;
  bool plan_valid = false;
  bool plan_external = false;
  ExecPlan plan;
  ExecPlanBuilder plan_builder;

  const ExecPlan& plan_for(const bytecode::Method& m,
                           const fabric::DataflowGraph& graph,
                           const fabric::Placement* placement,
                           const MachineConfig& config) {
    if (plan_valid && plan_method == &m && plan_code_size == m.code.size() &&
        plan_name == m.name) {
      if (placement == nullptr) {
        if (!plan_external) return plan;
      } else if (plan.fits() == placement->fits &&
                 (!placement->fits ||
                  (plan.max_slot() == placement->max_slot &&
                   std::equal(placement->slot_of.begin(),
                              placement->slot_of.end(), plan.slot())))) {
        return plan;
      }
    }
    plan_builder.build_into(plan, m, graph, placement, config);
    plan_valid = true;
    plan_external = placement != nullptr;
    plan_method = &m;
    plan_code_size = m.code.size();
    plan_name = m.name;
    return plan;
  }
};

Engine::Engine(MachineConfig config, EngineOptions options)
    : config_(std::move(config)),
      options_(options),
      ws_(std::make_unique<detail::EngineWorkspace>(config_, options_)) {}

Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

RunMetrics Engine::run(const bytecode::Method& m,
                       const fabric::DataflowGraph& graph,
                       BranchPredictor& predictor) {
  return run(m, ws_->plan_for(m, graph, nullptr, config_), predictor);
}

RunMetrics Engine::run(const bytecode::Method& m,
                       const fabric::DataflowGraph& graph,
                       const fabric::Placement& placement,
                       BranchPredictor& predictor) {
  return run(m, ws_->plan_for(m, graph, &placement, config_), predictor);
}

RunMetrics Engine::run(const bytecode::Method& m, const ExecPlan& plan,
                       BranchPredictor& predictor) {
  if (!plan.fits()) {
    // An unfit run leaves the recorder without a terminal edge, which
    // attribute() reports as invalid — never as zeros.
    if (options_.flight != nullptr) options_.flight->reset();
    RunMetrics metrics;
    metrics.static_size = static_cast<std::int32_t>(m.code.size());
    return metrics;
  }
  return std::visit(
      [&](auto& kernel) { return kernel.run(m, plan, predictor); },
      ws_->kernel);
}

}  // namespace javaflow::sim
