// JavaFlow public API — the façade a downstream user programs against.
//
// A `JavaFlowMachine` is one machine configuration (Table 15). Methods go
// through the paper's lifecycle explicitly:
//
//   JavaFlowMachine machine(sim::config_by_name("Hetero2"));
//   auto deployed = machine.deploy(method, program.pool);   // load+resolve
//   auto metrics  = machine.execute(deployed, BP1);         // token bundle
//
// `deploy` performs the greedy fabric load (Figure 20) and the two-pass
// serial address resolution (§6.2); `execute` launches the HEAD / MEMORY /
// REGISTER... / TAIL bundle (Figure 23) and runs to the Return. All
// intermediate artifacts (placement, dataflow graph, resolution metrics)
// are exposed for analysis.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "bytecode/assembler.hpp"
#include "bytecode/method.hpp"
#include "fabric/loader.hpp"
#include "fabric/resolver.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"

namespace javaflow {

// A method loaded into the fabric with resolved DataFlow addresses.
struct DeployedMethod {
  const bytecode::Method* method = nullptr;
  fabric::Placement placement;
  fabric::ResolutionResult resolution;

  bool ok() const noexcept { return placement.fits && resolution.ok; }
};

class JavaFlowMachine {
 public:
  explicit JavaFlowMachine(sim::MachineConfig config)
      : config_(std::move(config)), engine_(config_) {}

  const sim::MachineConfig& config() const noexcept { return config_; }

  // Load + resolve (paper §6.2). Does not throw on capacity misses —
  // check DeployedMethod::ok(); the paper's filters exclude such methods.
  DeployedMethod deploy(const bytecode::Method& m,
                        const bytecode::ConstantPool& pool) {
    DeployedMethod d;
    d.method = &m;
    fabric::Fabric fabric(config_.fabric_options());
    d.placement = fabric::load_method(fabric, m);
    if (!d.placement.fits) return d;
    d.resolution = fabric::resolve(fabric, m, d.placement, pool);
    return d;
  }

  // Execute a deployed method under a branch scenario.
  sim::RunMetrics execute(const DeployedMethod& d,
                          sim::BranchPredictor::Scenario scenario) {
    sim::BranchPredictor predictor(scenario);
    return execute(d, predictor);
  }
  sim::RunMetrics execute(const DeployedMethod& d,
                          sim::BranchPredictor& predictor) {
    if (!d.ok()) {
      throw std::runtime_error("execute: method is not deployed");
    }
    return engine_.run(*d.method, d.resolution.graph, predictor);
  }

 private:
  sim::MachineConfig config_;
  sim::Engine engine_;
};

}  // namespace javaflow
