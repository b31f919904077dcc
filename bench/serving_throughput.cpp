// Serving throughput harness: drives the deterministic request stream
// through the multi-tenant serving frontend (serve::serve) on all six
// Table 15 configurations, times each run, re-runs it to assert
// bit-identical behavior (digest equality), and emits
// BENCH_serving.json so the serving perf trajectory is tracked across
// PRs (tools/bench_gate.py --serving).
//
// The stream shape is fixed (seed 1, 96 requests, mean gap 48 ticks) and
// no environment variable is read, so every history entry measures the
// same stream; `javaflow_serve --seed/--requests/--mean-gap` runs any
// other shape.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "sim/config.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct TimedServe {
  javaflow::serve::ServeReport report;
  double seconds = 0.0;
};

TimedServe timed_serve(const javaflow::workloads::Corpus& corpus,
                       const std::vector<std::int32_t>& methods,
                       const javaflow::sim::MachineConfig& cfg,
                       const javaflow::serve::RequestStreamOptions& stream) {
  const auto t0 = Clock::now();
  TimedServe out;
  out.report = javaflow::serve::serve(corpus.program, methods, cfg, stream);
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace

int main() {
  // Kernel-only corpus: the serving mix wants methods the fabric can
  // place several of at once, and the hand-written kernels span the
  // size range the paper's Chapter 8 superposition argument needs.
  const javaflow::workloads::Corpus corpus =
      javaflow::workloads::make_corpus({/*seed=*/20141215,
                                        /*total_methods=*/0});
  std::vector<std::int32_t> methods;
  for (std::size_t i = 0; i < corpus.program.methods.size(); ++i) {
    methods.push_back(static_cast<std::int32_t>(i));
  }

  javaflow::serve::RequestStreamOptions stream;
  stream.seed = 1;
  stream.num_requests = 96;
  stream.mean_gap_ticks = 48;

  std::printf("serving_throughput: seed=%llu requests=%d mean_gap=%lld\n",
              static_cast<unsigned long long>(stream.seed),
              stream.num_requests,
              static_cast<long long>(stream.mean_gap_ticks));

  bool identical = true;
  bool overlap_ok = true;
  double total_seconds = 0.0;
  std::int64_t total_requests = 0;
  std::string rows;

  std::ofstream json("BENCH_serving.json");
  json << "{\n"
       << "  \"benchmark\": \"serving_throughput\",\n"
       << "  \"metadata\": {\n"
       << "    \"git_sha\": \"" << javaflow::bench::git_sha() << "\",\n"
       << "    \"timestamp_utc\": \"" << javaflow::bench::iso_timestamp_utc()
       << "\",\n"
       << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
       << "\n  },\n"
       << "  \"seed\": " << stream.seed << ",\n"
       << "  \"requests\": " << stream.num_requests << ",\n"
       << "  \"mean_gap_ticks\": " << stream.mean_gap_ticks << ",\n"
       << "  \"configs\": [";

  bool first = true;
  for (const javaflow::sim::MachineConfig& cfg :
       javaflow::sim::table15_configs()) {
    const TimedServe a = timed_serve(corpus, methods, cfg, stream);
    const TimedServe b = timed_serve(corpus, methods, cfg, stream);
    const bool same = a.report.digest() == b.report.digest();
    identical = identical && same;
    // Superposition witness (Chapter 8): any fabric wide enough for two
    // residencies must actually overlap them under this stream. The
    // two-node configs can legitimately serialize, so only the larger
    // fabrics are asserted.
    const bool must_overlap = cfg.name == "Baseline" ||
                              cfg.name == "Compact10" ||
                              cfg.name == "Compact4";
    if (must_overlap && a.report.ticks_res_2plus == 0) overlap_ok = false;

    total_seconds += a.seconds;
    total_requests += a.report.requests;
    const double rps =
        a.seconds > 0.0 ? static_cast<double>(a.report.requests) / a.seconds
                        : 0.0;
    std::printf(
        "  %-10s %5lld req  %6lld done  %4lld evict  p50=%-6lld "
        "p99=%-6lld overlap=%-8lld %8.1f req/s %s\n",
        cfg.name.c_str(), static_cast<long long>(a.report.requests),
        static_cast<long long>(a.report.completed),
        static_cast<long long>(a.report.evictions),
        static_cast<long long>(a.report.latency_p50),
        static_cast<long long>(a.report.latency_p99),
        static_cast<long long>(a.report.ticks_res_2plus),
        rps, same ? "" : "DIGEST MISMATCH");

    if (!first) json << ",";
    first = false;
    json << "\n    {\"wall_seconds\": " << a.seconds
         << ", \"requests_per_second\": " << rps
         << ", \"identical\": " << (same ? "true" : "false")
         << ",\n     \"report\": ";
    a.report.write_json(json);
    json << "}";
  }

  const double rps_total =
      total_seconds > 0.0 ? static_cast<double>(total_requests) / total_seconds
                          : 0.0;
  json << "\n  ],\n"
       << "  \"wall_seconds\": " << total_seconds << ",\n"
       << "  \"requests_per_second\": " << rps_total << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"overlap_ok\": " << (overlap_ok ? "true" : "false") << "\n"
       << "}\n";

  std::printf("  total: %.3f s, %.1f req/s across six configs\n",
              total_seconds, rps_total);
  std::printf("  identical reruns: %s, overlap: %s\n",
              identical ? "yes" : "NO", overlap_ok ? "yes" : "NO");
  std::printf("wrote BENCH_serving.json\n");

  // Either failure is a determinism or superposition regression: fail
  // loudly so the CI bench step catches it.
  return identical && overlap_ok ? 0 : 1;
}
