#include "sim/multi_engine.hpp"

#include "sim/kernel.hpp"

namespace javaflow::sim {

// The shared instantiation of the execution kernel (sim/kernel.hpp).
struct MultiEngine::Impl : detail::Kernel<false, true> {
  Impl(MachineConfig config, const MultiEngineOptions& options)
      : Kernel(std::move(config),
               EngineOptions{.max_ticks = options.max_ticks}) {}
};

MultiEngine::MultiEngine(MachineConfig config, MultiEngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(config), options)) {}
MultiEngine::MultiEngine(MultiEngine&&) noexcept = default;
MultiEngine& MultiEngine::operator=(MultiEngine&&) noexcept = default;
MultiEngine::~MultiEngine() = default;

ResidentId MultiEngine::admit(const bytecode::Method& m, const ExecPlan& plan,
                              std::int32_t phys_delta,
                              BranchPredictor::Scenario scenario,
                              std::int64_t start_tick) {
  return impl_->admit(m, plan, phys_delta, scenario, start_tick);
}

std::optional<ResidentId> MultiEngine::advance(std::int64_t until) {
  return impl_->advance(until);
}

bool MultiEngine::idle() const noexcept { return impl_->idle(); }

std::int64_t MultiEngine::now() const noexcept { return impl_->now(); }

std::size_t MultiEngine::resident_count() const noexcept {
  return impl_->resident_count();
}

std::size_t MultiEngine::running_count() const noexcept {
  return impl_->running_count();
}

std::size_t MultiEngine::lane_count() const noexcept {
  return impl_->lane_count();
}

const ResidentOutcome* MultiEngine::outcome(ResidentId r) const noexcept {
  return impl_->outcome(r);
}

MultiRunMetrics MultiEngine::finish() { return impl_->finish(); }

const MachineConfig& MultiEngine::config() const noexcept {
  return impl_->config();
}

}  // namespace javaflow::sim
