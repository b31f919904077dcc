#include "obs/event_tracer.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "net/message.hpp"
#include "util/json.hpp"

namespace javaflow::obs {

namespace {

constexpr int kFabricPid = 0;
constexpr int kNetworkPid = 1;
constexpr int kSerialTid = 0;
constexpr int kMeshTid = 1;
constexpr int kRingTid = 2;

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  std::ostream& begin(const char* ph, std::string_view name, int pid,
                      std::int64_t tid) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "    {\"ph\":\"" << ph << "\",\"name\":\"";
    util::json_escape(os_, name);
    os_ << "\",\"pid\":" << pid << ",\"tid\":" << tid;
    return os_;
  }

  void meta(const char* kind, int pid, std::int64_t tid,
            std::string_view value) {
    begin("M", kind, pid, tid) << ",\"args\":{\"name\":\"";
    util::json_escape(os_, value);
    os_ << "\"}}";
  }

  void instant(std::string_view name, int pid, std::int64_t tid,
               std::int64_t ts, std::string_view args_json) {
    begin("i", name, pid, tid)
        << ",\"ts\":" << ts << ",\"s\":\"t\",\"args\":" << args_json << '}';
  }

  void slice(std::string_view name, int pid, std::int64_t tid,
             std::int64_t ts, std::int64_t dur, std::string_view args_json) {
    begin("X", name, pid, tid) << ",\"ts\":" << ts
                               << ",\"dur\":" << std::max<std::int64_t>(dur, 1)
                               << ",\"args\":" << args_json << '}';
  }

  // Chrome flow-event pair: an arrow from (pid 0, producer slot) to
  // (pid 0, consumer slot). "bp":"e" binds the finish to the enclosing
  // slice/instant at that timestamp, which is what Perfetto draws.
  void flow(std::int64_t id, int pid, std::int64_t src_tid,
            std::int64_t src_ts, std::int64_t dst_tid, std::int64_t dst_ts) {
    begin("s", "operand", pid, src_tid)
        << ",\"cat\":\"dataflow\",\"id\":" << id << ",\"ts\":" << src_ts
        << '}';
    begin("f", "operand", pid, dst_tid)
        << ",\"cat\":\"dataflow\",\"id\":" << id << ",\"ts\":" << dst_ts
        << ",\"bp\":\"e\"}";
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string node_args(const TraceEvent& e) {
  return "{\"node\":" + std::to_string(e.node) +
         ",\"slot\":" + std::to_string(e.slot) + "}";
}

std::string_view label_of(const TraceMeta& meta, std::int32_t node,
                          std::string_view fallback) {
  if (node >= 0 && static_cast<std::size_t>(node) < meta.node_labels.size()) {
    return meta.node_labels[static_cast<std::size_t>(node)];
  }
  return fallback;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const EventTracer& tracer,
                        const TraceMeta& meta) {
  // Stable sort by tick: simultaneous events keep their deterministic
  // engine handling order.
  std::vector<TraceEvent> events = tracer.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.tick < b.tick;
                   });

  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
     << "\"method\": \"";
  util::json_escape(os, meta.method);
  os << "\", \"config\": \"";
  util::json_escape(os, meta.config);
  os << "\", \"scenario\": \"";
  util::json_escape(os, meta.scenario);
  os << "\", \"serial_per_mesh\": " << meta.serial_per_mesh
     << ", \"time_unit\": \"serial ticks (1 tick = 1us in the viewer)\"},\n"
     << "  \"traceEvents\": [\n";

  EventWriter w(os);
  w.meta("process_name", kFabricPid, 0,
         "fabric: " + meta.method + " on " + meta.config);
  w.meta("process_name", kNetworkPid, 0, "networks");
  w.meta("thread_name", kNetworkPid, kSerialTid, "serial chain");
  w.meta("thread_name", kNetworkPid, kMeshTid, "mesh (DataFlow)");
  w.meta("thread_name", kNetworkPid, kRingTid, "memory/GPP ring");

  // One named track per fabric node that appears in the trace.
  std::set<std::pair<std::int64_t, std::int32_t>> slots;  // (slot, node)
  for (const TraceEvent& e : events) {
    if (e.slot >= 0) slots.insert({e.slot, e.node});
  }
  for (const auto& [slot, node] : slots) {
    std::string label = "slot " + std::to_string(slot);
    const std::string_view inst = label_of(meta, node, "");
    if (!inst.empty()) label += ": " + std::string(inst);
    w.meta("thread_name", kFabricPid, slot, label);
  }

  // Producer bookkeeping for mesh flow arrows: the arrow starts at the
  // producer's most recent completed firing (the tick the operand left),
  // which sorts before the arrival because mesh transit takes >= 1 tick.
  std::map<std::int32_t, std::pair<std::int64_t, std::int64_t>>
      last_complete;  // node -> (tick, slot)
  std::int64_t flow_id = 0;

  for (const TraceEvent& e : events) {
    const std::string args = node_args(e);
    if (e.kind == TraceEventKind::FireComplete && e.node >= 0) {
      last_complete[e.node] = {e.tick, e.slot};
    }
    switch (e.kind) {
      case TraceEventKind::TokenDeliver: {
        const auto cmd =
            net::command_name(static_cast<net::Command>(e.aux));
        w.instant(cmd, kFabricPid, e.slot, e.tick, args);
        w.instant(cmd, kNetworkPid, kSerialTid, e.tick, args);
        break;
      }
      case TraceEventKind::OperandArrive: {
        const std::string name =
            "operand side " + std::to_string(static_cast<int>(e.aux));
        w.instant(name, kFabricPid, e.slot, e.tick, args);
        w.instant(name, kNetworkPid, kMeshTid, e.tick, args);
        if (e.dur >= 0) {
          const auto it =
              last_complete.find(static_cast<std::int32_t>(e.dur));
          if (it != last_complete.end() && it->second.first <= e.tick) {
            w.flow(flow_id++, kFabricPid, it->second.second,
                   it->second.first, e.slot, e.tick);
          }
        }
        break;
      }
      case TraceEventKind::FireStart:
        w.slice(label_of(meta, e.node, "fire"), kFabricPid, e.slot, e.tick,
                e.dur, args);
        break;
      case TraceEventKind::FireComplete:
        // Encoded by the FireStart "X" slice's duration.
        break;
      case TraceEventKind::ServiceStart: {
        const auto svc =
            net::ring_service_name(static_cast<net::RingService>(e.aux));
        w.slice("svc: " + std::string(svc), kFabricPid, e.slot, e.tick,
                e.dur, args);
        w.instant(svc, kNetworkPid, kRingTid, e.tick, args);
        break;
      }
      case TraceEventKind::ServiceComplete: {
        const auto svc =
            net::ring_service_name(static_cast<net::RingService>(e.aux));
        w.instant("done: " + std::string(svc), kNetworkPid, kRingTid, e.tick,
                  args);
        break;
      }
    }
  }
  os << "\n  ]\n}\n";
}

}  // namespace javaflow::obs
