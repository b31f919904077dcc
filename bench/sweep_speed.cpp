// Sweep throughput harness: times the Chapter 7 method × config ×
// scenario sweep serial vs parallel, verifies the two runs produce
// identical sample sequences (exit 1 if not), and writes the timings and
// the sweep report to BENCH_sweep.json. A local timing tool: perfbench
// (perfbench/run.py) is the throughput record.
//
// Knobs (see docs/PERF.md): JAVAFLOW_BENCH_STRIDE subsamples the corpus
// for smoke runs; JAVAFLOW_THREADS sizes the parallel leg (0 = one
// worker per hardware thread); JAVAFLOW_BENCH_FILTER restricts the
// corpus to matching method names; JAVAFLOW_CACHE / JAVAFLOW_CACHE_DIR
// enable the persistent result cache (a warm cache makes both legs
// serve from disk — the JSON's cache counters say which ran).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct TimedSweep {
  javaflow::analysis::Sweep sweep;
  double seconds = 0.0;
};

TimedSweep timed_sweep(const javaflow::bench::Context& ctx,
                       const std::vector<const javaflow::bytecode::Method*>&
                           methods,
                       const javaflow::analysis::SweepOptions& options) {
  const auto t0 = Clock::now();
  TimedSweep out;
  out.sweep = javaflow::analysis::run_sweep(
      methods, ctx.corpus.program.pool, ctx.hot_method_names(), options);
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

double rate(std::size_t cells, double seconds) {
  return seconds > 0.0 ? static_cast<double>(cells) / seconds : 0.0;
}

// The serial leg's algorithmic cost and host constant: modelled
// messages (serial + mesh) per cell, the share of them the loop
// fast-forward accounted without simulating, calendar spills per cell,
// and engine execute time per modelled and per simulated message. The
// message count comes from the samples, the rest from the sweep
// profile, so the hot path carries no counter for them. The ns figures
// are absent when the cache served any cell: those cells count messages
// but no execute time.
struct MessageCost {
  double per_cell = 0.0;
  double fast_forwarded_per_cell = 0.0;
  double fast_forwarded_share = 0.0;
  double spills_per_cell = 0.0;
  std::optional<double> ns_per_message;
  std::optional<double> ns_per_simulated_message;
};

MessageCost message_cost(const javaflow::analysis::Sweep& sweep) {
  std::int64_t messages = 0;
  for (const javaflow::analysis::SweepSample& s : sweep.samples) {
    messages += s.metrics.serial_messages + s.metrics.mesh_messages;
  }
  MessageCost cost;
  if (messages == 0) return cost;
  const javaflow::analysis::SweepProfile::Lane total = sweep.profile.total();
  const auto cells = static_cast<double>(sweep.samples.size());
  cost.per_cell = static_cast<double>(messages) / cells;
  cost.fast_forwarded_per_cell = static_cast<double>(total.ff_messages) / cells;
  cost.fast_forwarded_share =
      static_cast<double>(total.ff_messages) / static_cast<double>(messages);
  cost.spills_per_cell = static_cast<double>(total.spills) / cells;
  if (sweep.cache.hit_cells == 0) {
    cost.ns_per_message =
        total.execute_s * 1e9 / static_cast<double>(messages);
    const std::int64_t simulated = messages - total.ff_messages;
    if (simulated > 0) {
      cost.ns_per_simulated_message =
          total.execute_s * 1e9 / static_cast<double>(simulated);
    }
  }
  return cost;
}

std::string json_number(const std::optional<double>& v) {
  return v ? std::to_string(*v) : std::string("null");
}

}  // namespace

int main() {
  javaflow::bench::Context ctx;
  javaflow::analysis::SweepOptions options;
  javaflow::bench::apply_env(options);  // threads: clamped JAVAFLOW_THREADS
  const unsigned threads = static_cast<unsigned>(options.threads);

  std::printf("sweep_speed: stride=%d, parallel leg uses %u thread(s)\n",
              options.stride, threads);

  const std::vector<const javaflow::bytecode::Method*> methods =
      ctx.sweep_methods();
  javaflow::analysis::SweepOptions serial_options = options;
  serial_options.threads = 1;
  const TimedSweep serial = timed_sweep(ctx, methods, serial_options);
  const TimedSweep parallel = timed_sweep(ctx, methods, options);

  const std::size_t cells = serial.sweep.samples.size();
  const bool identical = serial.sweep.samples == parallel.sweep.samples;
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;

  std::printf("  cells:    %zu (%zu methods x %zu configs x 2 scenarios)\n",
              cells,
              cells / (serial.sweep.configs.size() * 2),
              serial.sweep.configs.size());
  std::printf("  serial:   %.3f s (%.1f cells/s)\n", serial.seconds,
              rate(cells, serial.seconds));
  const MessageCost cost = message_cost(serial.sweep);
  if (cost.ns_per_message) {
    std::printf("  messages: %.1f per cell, %.2f ns each (serial leg)\n",
                cost.per_cell, *cost.ns_per_message);
  } else {
    std::printf("  messages: %.1f per cell (cache-served: no ns/message)\n",
                cost.per_cell);
  }
  std::printf("  fast-forwarded: %.1f %% of messages (%.1f per cell)",
              100.0 * cost.fast_forwarded_share,
              cost.fast_forwarded_per_cell);
  if (cost.ns_per_simulated_message) {
    std::printf(", %.2f ns per simulated message",
                *cost.ns_per_simulated_message);
  }
  std::printf("\n  spills:   %.3f per cell\n", cost.spills_per_cell);
  std::printf("  parallel: %.3f s (%.1f cells/s)\n", parallel.seconds,
              rate(cells, parallel.seconds));
  std::printf("  speedup:  %.2fx on %u thread(s)\n", speedup, threads);
  std::printf("  cache:    %s (%zu hit / %zu miss / %zu dedup cells)\n",
              serial.sweep.cache.mode.c_str(), serial.sweep.cache.hit_cells,
              serial.sweep.cache.miss_cells, serial.sweep.cache.dedup_cells);
  std::printf("  identical output: %s\n", identical ? "yes" : "NO");

  std::ofstream json("BENCH_sweep.json");
  json << "{\n"
       << "  \"benchmark\": \"sweep_speed\",\n"
       << "  \"cells\": " << cells << ",\n"
       << "  \"stride\": " << javaflow::bench::env_stride() << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << serial.seconds << ",\n"
       << "  \"parallel_seconds\": " << parallel.seconds << ",\n"
       << "  \"serial_cells_per_second\": " << rate(cells, serial.seconds)
       << ",\n"
       << "  \"messages_per_cell\": " << cost.per_cell << ",\n"
       << "  \"ns_per_message\": " << json_number(cost.ns_per_message)
       << ",\n"
       << "  \"fast_forwarded_messages_per_cell\": "
       << cost.fast_forwarded_per_cell << ",\n"
       << "  \"spills_per_cell\": " << cost.spills_per_cell << ",\n"
       << "  \"ns_per_simulated_message\": "
       << json_number(cost.ns_per_simulated_message) << ",\n"
       << "  \"parallel_cells_per_second\": "
       << rate(cells, parallel.seconds) << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"report\": ";
  javaflow::analysis::write_sweep_json(json, parallel.sweep, 2);
  json << "\n}\n";
  std::printf("wrote BENCH_sweep.json\n");

  // A mismatch means the parallel sweep broke determinism: fail loudly
  // so CI smoke runs catch it.
  return identical ? 0 : 1;
}
