// Sweep throughput harness: times the Chapter 7 method × config ×
// scenario sweep serial vs parallel, verifies the two runs produce
// identical sample sequences, and emits BENCH_sweep.json so the perf
// trajectory is tracked across PRs.
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
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct TimedSweep {
  javaflow::analysis::Sweep sweep;
  double seconds = 0.0;
};

TimedSweep timed_sweep(const javaflow::bench::Context& ctx, int threads) {
  javaflow::analysis::SweepOptions options;
  javaflow::bench::apply_env(options);
  options.threads = threads;
  const auto t0 = Clock::now();
  TimedSweep out;
  out.sweep = javaflow::analysis::run_sweep(
      ctx.all_methods(), ctx.corpus.program.pool, ctx.hot_method_names(),
      options);
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

double rate(std::size_t cells, double seconds) {
  return seconds > 0.0 ? static_cast<double>(cells) / seconds : 0.0;
}

// The serial leg's algorithmic cost and host constant: simulated
// messages (serial + mesh) per cell, and engine execute time per
// message. Both come from the samples and the sweep profile, so the hot
// path carries no counter for them. ns_per_message is absent when the
// cache served any cell: those cells count messages but no execute
// time.
struct MessageCost {
  double per_cell = 0.0;
  std::optional<double> ns_per_message;
};

MessageCost message_cost(const javaflow::analysis::Sweep& sweep) {
  std::int64_t messages = 0;
  for (const javaflow::analysis::SweepSample& s : sweep.samples) {
    messages += s.metrics.serial_messages + s.metrics.mesh_messages;
  }
  MessageCost cost;
  if (messages == 0) return cost;
  cost.per_cell = static_cast<double>(messages) /
                  static_cast<double>(sweep.samples.size());
  if (sweep.cache.hit_cells == 0) {
    cost.ns_per_message = sweep.profile.total().execute_s * 1e9 /
                          static_cast<double>(messages);
  }
  return cost;
}

}  // namespace

int main() {
  javaflow::bench::Context ctx;
  const unsigned threads = javaflow::util::ThreadPool::resolve_clamped(
      javaflow::bench::env_threads());

  std::printf("sweep_speed: stride=%d, parallel leg uses %u thread(s)\n",
              javaflow::bench::env_stride(), threads);

  const TimedSweep serial = timed_sweep(ctx, 1);
  const TimedSweep parallel = timed_sweep(ctx, static_cast<int>(threads));

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
  std::printf("  parallel: %.3f s (%.1f cells/s)\n", parallel.seconds,
              rate(cells, parallel.seconds));
  std::printf("  speedup:  %.2fx on %u thread(s)\n", speedup, threads);
  std::printf("  cache:    %s (%zu hit / %zu miss / %zu dedup cells)\n",
              serial.sweep.cache.mode.c_str(), serial.sweep.cache.hit_cells,
              serial.sweep.cache.miss_cells, serial.sweep.cache.dedup_cells);
  std::printf("  identical output: %s\n", identical ? "yes" : "NO");

  // Run metadata so BENCH_sweep.json files are comparable across PRs:
  // which commit, when, on how many hardware threads, and with which env
  // knobs in effect.
  const char* threads_env = std::getenv("JAVAFLOW_THREADS");
  const char* stride_env = std::getenv("JAVAFLOW_BENCH_STRIDE");
  const char* cache_env = std::getenv("JAVAFLOW_CACHE");
  const char* cache_dir_env = std::getenv("JAVAFLOW_CACHE_DIR");
  const char* filter_env = std::getenv("JAVAFLOW_BENCH_FILTER");
  const auto env_json = [](const char* v) {
    if (v == nullptr) return std::string("null");
    std::ostringstream os;
    javaflow::util::json_escape(os << '"', v);
    return os.str() + '"';
  };

  std::ofstream json("BENCH_sweep.json");
  json << "{\n"
       << "  \"benchmark\": \"sweep_speed\",\n"
       << "  \"metadata\": {\n"
       << "    \"git_sha\": \"" << javaflow::bench::git_sha() << "\",\n"
       << "    \"timestamp_utc\": \""
       << javaflow::bench::iso_timestamp_utc() << "\",\n"
       << "    \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "    \"env_javaflow_threads\": " << env_json(threads_env)
       << ",\n"
       << "    \"env_javaflow_bench_stride\": " << env_json(stride_env)
       << ",\n"
       << "    \"env_javaflow_cache\": " << env_json(cache_env) << ",\n"
       << "    \"env_javaflow_cache_dir\": " << env_json(cache_dir_env)
       << ",\n"
       << "    \"env_javaflow_bench_filter\": " << env_json(filter_env)
       << "\n  },\n"
       << "  \"cells\": " << cells << ",\n"
       << "  \"stride\": " << javaflow::bench::env_stride() << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_seconds\": " << serial.seconds << ",\n"
       << "  \"parallel_seconds\": " << parallel.seconds << ",\n"
       << "  \"serial_cells_per_second\": " << rate(cells, serial.seconds)
       << ",\n"
       << "  \"messages_per_cell\": " << cost.per_cell << ",\n"
       << "  \"ns_per_message\": "
       << (cost.ns_per_message ? std::to_string(*cost.ns_per_message)
                               : std::string("null"))
       << ",\n"
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
