// Serving frontend: FabricManager as a multi-tenant request server
// (docs/SERVING.md; paper §6.2 management, §4.3 atomic execution,
// Chapter 8 superposition).
//
// serve::serve() drives a deterministic request stream through one
// FabricManager (slot occupancy, plan sharing, load/unload, the §4.3
// execute lease) and one sim::MultiEngine (the shared-fabric event
// calendar):
//
//   * Admission queueing — arrivals enter a FIFO queue; a request is
//     admitted when its method holds no active thread (§4.3: same-method
//     requests serialize) and the fabric has room. A space-blocked head
//     stops the scan (FIFO fairness for space); busy-method requests
//     are scanned around (the fabric is not idled by one hot method).
//   * Occupancy-aware placement — the manager's first_free_row() finds
//     the lowest row-aligned free gap of the method's canonical span,
//     which lets the residency share the canonical pre-lowered plan;
//     only irregular packings pay a dedicated lowering.
//   * Idle-LRU eviction — when placement fails, the least-recently-used
//     idle resident is unloaded and placement retried.
//   * Per-request latency accounting — completion tick minus arrival
//     tick, summarized as nearest-rank p50/p95/p99.
//
// Determinism: the stream is a pure function of its seed, the engine
// calendar is single-threaded, and every server decision (scan order,
// eviction ties, percentile ranks) is integer-ordered — repeated runs
// produce bit-identical ServeReports (digest()). No environment
// variable is read.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "bytecode/method.hpp"
#include "serve/request_stream.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"

namespace javaflow::serve {

// Per-request terminal record. Exactly one of completed / rejected /
// timed_out is set once the stream drains.
struct RequestOutcome {
  std::int64_t request_id = -1;
  std::int32_t method_index = -1;
  std::int64_t arrival_tick = 0;
  std::int64_t admitted_tick = -1;   // -1 if never admitted
  std::int64_t completed_tick = -1;  // -1 unless completed
  std::int64_t latency_ticks = -1;   // completed - arrival
  bool completed = false;
  bool rejected = false;   // method can never fit on this fabric
  // Stranded: the calendar drained while the residency still ran, so it
  // could never finish.
  bool timed_out = false;
  bool plan_shared = false;
  sim::RunMetrics metrics;  // valid when completed or timed_out
};

struct ServeReport {
  std::string config_name;
  std::uint64_t seed = 0;
  std::int64_t requests = 0;
  std::int64_t completed = 0;
  std::int64_t rejected = 0;
  std::int64_t timed_out = 0;
  std::int64_t fabric_ticks = 0;
  std::int64_t ticks_res_1plus = 0;
  std::int64_t ticks_res_2plus = 0;  // superposition witness
  std::int64_t serial_wait_ticks = 0;
  std::int64_t mesh_wait_ticks = 0;
  std::int64_t ring_wait_ticks = 0;
  std::int64_t loads = 0;
  std::int64_t evictions = 0;
  std::int64_t plans_shared = 0;
  std::int64_t plans_lowered = 0;
  std::int64_t max_queue_depth = 0;
  std::int64_t instructions_fired = 0;
  // Completed-request latency summary (nearest-rank percentiles over the
  // sorted latencies; -1 when nothing completed). The mean is kept as a
  // x1000 integer so the report stays float-free and bit-stable.
  std::int64_t latency_p50 = -1;
  std::int64_t latency_p95 = -1;
  std::int64_t latency_p99 = -1;
  std::int64_t latency_max = -1;
  std::int64_t latency_mean_x1000 = -1;
  std::vector<RequestOutcome> outcomes;

  // FNV-1a 64 over every scalar field and every outcome, in declaration
  // order — two runs are behaviorally identical iff digests match.
  std::uint64_t digest() const;
  // Deterministic JSON (fixed key order, integers only).
  void write_json(std::ostream& os) const;
};

// Runs the request stream against `program`'s methods on a fresh fabric
// of `config`. `methods` restricts the corpus to the given method
// indices (the stream's method_index selects into this list); pass the
// identity list for the whole program. Throws std::invalid_argument,
// before serving, when `methods` is empty or holds an index outside
// `program.methods`, or when make_request_stream() rejects `stream`'s
// mean gap. Throws std::logic_error unless the
// outcomes partition the stream: requests = completed + rejected +
// timed_out, with exactly one terminal flag per outcome.
ServeReport serve(const bytecode::Program& program,
                  const std::vector<std::int32_t>& methods,
                  const sim::MachineConfig& config,
                  const RequestStreamOptions& stream);

}  // namespace javaflow::serve
