// Execution engine: simulates a loaded, resolved method running on the
// DataFlow fabric under a machine configuration (paper §6.3 + §7.3).
//
// The time base is serial ticks; one mesh cycle is `serial_per_mesh`
// ticks (Table 15). The engine is event-driven: serial token deliveries,
// mesh operand arrivals, execution completions (Table 17 costs) and
// memory/GPP service completions (Figure 25) are the event kinds. The
// Baseline configuration collapses serial transit to zero ticks and all
// mesh distances to one cycle.
//
// Engine runs the solo instantiation of the one execution kernel
// (sim/kernel.hpp); sim::MultiEngine runs its shared instantiation.
#pragma once

#include <cstdint>
#include <memory>

#include "bytecode/method.hpp"
#include "fabric/dataflow_graph.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/plan.hpp"

namespace javaflow::obs {
struct MetricsRegistry;
class EventTracer;
class FlightRecorder;
}  // namespace javaflow::obs

namespace javaflow::sim {

namespace detail {
// Heap allocations (the kernel's calendar, node lanes and operand
// buffers, and the graph overload's plan scratch) that persist across an
// Engine's run() calls so repeated runs reuse capacity instead of
// re-allocating. Defined in engine.cpp.
struct EngineWorkspace;
}  // namespace detail

struct RunMetrics {
  bool fits = false;       // method placed within the node budget
  bool completed = false;  // reached a Return (or aborted via exception)
  bool timed_out = false;  // exceeded the tick budget (excluded, §7.3)
  bool exception = false;  // EXCEPTION_TOKEN raised; GPP terminated the
                           // method (§6.3 "Exceptions")

  std::int64_t ticks = 0;          // serial ticks at completion
  std::int64_t mesh_cycles = 0;    // ticks / serial_per_mesh, rounded up
  std::int64_t instructions_fired = 0;  // firings (re-fires in loops count)
  std::int32_t distinct_fired = 0;
  std::int32_t static_size = 0;
  std::int32_t max_slot = -1;      // highest fabric slot used (Table 19)
  std::int64_t mesh_messages = 0;
  std::int64_t serial_messages = 0;

  // Tick spans with >=1 / >=2 instructions in execution (Table 26).
  std::int64_t ticks_exec_1plus = 0;
  std::int64_t ticks_exec_2plus = 0;

  double ipc() const {
    return mesh_cycles > 0
               ? static_cast<double>(instructions_fired) /
                     static_cast<double>(mesh_cycles)
               : 0.0;
  }
  double coverage() const {
    return static_size > 0 ? static_cast<double>(distinct_fired) /
                                 static_cast<double>(static_size)
                           : 0.0;
  }
  double parallel_2plus() const {
    return ticks > 0 ? static_cast<double>(ticks_exec_2plus) /
                           static_cast<double>(ticks)
                     : 0.0;
  }
  double nodes_per_instruction() const {
    return static_size > 0 ? static_cast<double>(max_slot + 1) /
                                 static_cast<double>(static_size)
                           : 0.0;
  }

  // Field-wise equality, used to assert that parallel and serial sweeps
  // (and repeated runs on a reused engine) produce identical results.
  bool operator==(const RunMetrics&) const = default;
};

struct EngineOptions {
  std::int64_t max_ticks = 4'000'000;
  // Failure injection: the node at this linear address raises an
  // arithmetic exception on its `inject_exception_fire`-th firing
  // (1-based). The node halts, an EXCEPTION_TOKEN travels to the GPP,
  // and the GPP terminates the method (§6.3 "Exceptions").
  std::int32_t inject_exception_at = -1;
  std::int32_t inject_exception_fire = 1;
  // Telemetry (src/obs/, docs/OBSERVABILITY.md). Both default to null.
  // An engine with any hook or an injected exception runs the
  // instrumented kernel; without them every hook is compiled out. Counters
  // accumulate across runs; the caller owns the objects and must keep
  // them alive for the engine's lifetime. Neither is touched by any
  // other thread while a run is in flight (engines are lane-private).
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventTracer* tracer = nullptr;
  // Critical-path flight recorder (src/obs/critpath.hpp): captures one
  // dependency edge per scheduled event so attribute() can reconstruct
  // the realized critical path. Same null-guarded contract as the two
  // pointers above; the recorder is reset by the engine at the start of
  // every run, so its contents always describe the latest run.
  obs::FlightRecorder* flight = nullptr;
};

// An Engine carries only its configuration plus a private scratch
// workspace; all per-run state lives in the workspace and is fully
// re-initialized by each run() call. Distinct Engine instances may run
// concurrently on different threads (the parallel sweep gives each
// worker lane its own engines); a single instance is not re-entrant.
class Engine {
 public:
  explicit Engine(MachineConfig config, EngineOptions options = {});
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();

  // Runs one method to completion (or timeout). The dataflow graph must
  // have been built for `m` (it is configuration-independent, so callers
  // build it once and reuse it across configurations and predictors).
  // Every call places the method on a fresh fabric and lowers it into
  // workspace scratch, so the result depends on the arguments alone: a
  // method edited in place between calls runs as edited.
  RunMetrics run(const bytecode::Method& m,
                 const fabric::DataflowGraph& graph,
                 BranchPredictor& predictor);

  // Run from a pre-lowered plan (docs/PERF.md "Execution kernel"). The
  // plan must have been built for `m` under this engine's MachineConfig;
  // it embeds the graph, placement, and timing model. The plan is
  // read-only here — the parallel sweep shares one plan across worker
  // lanes.
  RunMetrics run(const bytecode::Method& m, const ExecPlan& plan,
                 BranchPredictor& predictor);

  const MachineConfig& config() const noexcept { return config_; }

 private:
  MachineConfig config_;
  EngineOptions options_;
  std::unique_ptr<detail::EngineWorkspace> ws_;
};

}  // namespace javaflow::sim
