#include "sim/engine.hpp"

#include <memory>
#include <utility>
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
  RunWork work;  // the latest run's

  // Scratch for the graph overload: rebuilt on every call, keeping the
  // builder's buffers and the plan's arena capacity.
  ExecPlan plan;
  ExecPlanBuilder plan_builder;
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
  ws_->plan_builder.build_into(ws_->plan, m, graph, nullptr, config_);
  return run(m, ws_->plan, predictor);
}

RunMetrics Engine::run(const bytecode::Method& m, const ExecPlan& plan,
                       BranchPredictor& predictor) {
  if (!plan.fits()) {
    // An unfit run leaves the recorder without a terminal edge, which
    // attribute() reports as invalid — never as zeros.
    if (options_.flight != nullptr) options_.flight->reset();
    ws_->work = RunWork{};
    RunMetrics metrics;
    metrics.static_size = static_cast<std::int32_t>(m.code.size());
    return metrics;
  }
  return std::visit(
      [&](auto& kernel) {
        const RunMetrics metrics = kernel.run(m, plan, predictor);
        ws_->work = kernel.work();
        return metrics;
      },
      ws_->kernel);
}

const RunWork& Engine::last_work() const noexcept { return ws_->work; }

}  // namespace javaflow::sim
