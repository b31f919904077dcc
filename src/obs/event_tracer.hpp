// Cycle-accurate event tracing for the simulator (observability layer).
//
// An EventTracer attached via EngineOptions::tracer records every engine
// event as it is *handled* (so only events that really happened appear):
// serial token deliveries (§6.1 Figure 17), mesh operand arrivals (§6.1
// Figure 18), firing start / completion (Table 17 costs), and memory /
// GPP ring service start / completion (Figure 25). Timestamps are the
// engine's serial ticks, so a trace is bit-identical across repeated
// runs of the same method × configuration × scenario.
//
// write_chrome_trace() exports the Chrome trace-event JSON format
// (loadable in Perfetto / chrome://tracing): one track per fabric node
// (pid 0, tid = physical chain slot; firings as complete "X" slices,
// token/operand arrivals as instants) and one track per network (pid 1:
// serial, mesh, ring), plus flow events (producer→consumer arrows) for
// every mesh operand whose producer is known, so Perfetto draws the
// realized dataflow edges. Ticks map to microseconds 1:1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace javaflow::obs {

enum class TraceEventKind : std::uint8_t {
  TokenDeliver,     // serial message handled at a node; aux = net::Command
  OperandArrive,    // mesh operand handled at a node; aux = consumer side,
                    // dur = producer linear address (-1 unknown) — feeds
                    // the exporter's producer→consumer flow arrows
  FireStart,        // execution began; dur = execution ticks
  FireComplete,     // execution finished
  ServiceStart,     // ring request dispatched; aux = net::RingService,
                    // dur = service ticks (posted writes never "complete")
  ServiceComplete,  // blocking ring reply arrived; aux = net::RingService
};

struct TraceEvent {
  std::int64_t tick = 0;
  TraceEventKind kind = TraceEventKind::TokenDeliver;
  std::int32_t node = -1;  // linear instruction address
  std::int32_t slot = -1;  // physical chain slot (fabric node track)
  std::uint8_t aux = 0;    // kind-dependent payload (see above)
  std::int64_t dur = 0;    // FireStart / ServiceStart durations, in ticks

  bool operator==(const TraceEvent&) const = default;
};

class EventTracer {
 public:
  void record(const TraceEvent& e) { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

// Static context the exporter needs to label tracks.
struct TraceMeta {
  std::string method;
  std::string config;
  std::string scenario;
  int serial_per_mesh = 1;
  // Per linear instruction: a display label ("12 iadd"), method-sized.
  std::vector<std::string> node_labels;
};

// Writes a self-contained Chrome trace-event JSON object. Deterministic:
// events are emitted in (tick, recording order), and no wall-clock or
// address-dependent data is included.
void write_chrome_trace(std::ostream& os, const EventTracer& tracer,
                        const TraceMeta& meta);

}  // namespace javaflow::obs
