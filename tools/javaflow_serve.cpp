// javaflow_serve — multi-tenant serving CLI (docs/SERVING.md).
//
// Drives a deterministic seeded request stream over a corpus slice on
// one (or all six) Table 15 configurations through the serving frontend
// (serve::serve): admission queueing, occupancy-aware placement with
// canonical-plan sharing, idle-LRU eviction, and per-request latency
// accounting on the shared-fabric MultiEngine.
//
// Usage:
//   javaflow_serve [--config <name>|all] [--seed <n>] [--requests <n>]
//                  [--mean-gap <ticks>] [--hot-fraction <n/256>]
//                  [--hot <n>] [--methods <n>] [--out <file>] [--digest]
//
// Defaults: --config Compact2, --seed 1, --requests 64, --mean-gap 64,
// --hot-fraction 128, --hot 4, --methods = the hand-written kernels,
// --out - (stdout). Ranges: --seed any unsigned 64-bit value,
// --requests, --hot and --methods 1..2^31-1, --mean-gap 1..10^9,
// --hot-fraction 0..256; anything else is a usage error. --digest
// prints one "<config> <digest>" line per configuration to stdout
// instead of JSON — the CI smoke step compares these across runs. No
// environment variable is read. Exit codes: 0 ok, 1 bad usage,
// 2 a serving run threw (its conservation check or another server or
// engine invariant failed).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "sim/config.hpp"
#include "util/env.hpp"
#include "workloads/corpus.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config <name>|all] [--seed <n>] "
               "[--requests <n>] [--mean-gap <ticks>]\n"
               "       [--hot-fraction <n/256>] [--hot <n>] "
               "[--methods <n>] [--out <file>] [--digest]\n"
               "  --seed 0..2^64-1; --requests, --hot, --methods "
               "1..2^31-1;\n"
               "  --mean-gap 1..1000000000; --hot-fraction 0..256\n",
               argv0);
  return 1;
}

constexpr long kMaxCount = std::numeric_limits<std::int32_t>::max();
// Keeps every arrival tick of a maximal stream inside int64.
constexpr long kMaxMeanGap = 1'000'000'000;

}  // namespace

int main(int argc, char** argv) {
  std::string config_name = "Compact2";
  std::string out_path = "-";
  javaflow::serve::RequestStreamOptions stream;
  bool digest_only = false;
  long methods_limit = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--config") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config_name = v;
    } else if (arg == "--seed") {
      const auto n = javaflow::util::parse_u64(value());
      if (!n) return usage(argv[0]);
      stream.seed = *n;
    } else if (arg == "--requests") {
      const auto n = javaflow::util::parse_long(value(), 1, kMaxCount);
      if (!n) return usage(argv[0]);
      stream.num_requests = static_cast<std::int32_t>(*n);
    } else if (arg == "--mean-gap") {
      const auto n = javaflow::util::parse_long(value(), 1, kMaxMeanGap);
      if (!n) return usage(argv[0]);
      stream.mean_gap_ticks = *n;
    } else if (arg == "--hot-fraction") {
      const auto n = javaflow::util::parse_long(value(), 0, 256);
      if (!n) return usage(argv[0]);
      stream.hot_fraction_256 = static_cast<std::int32_t>(*n);
    } else if (arg == "--hot") {
      const auto n = javaflow::util::parse_long(value(), 1, kMaxCount);
      if (!n) return usage(argv[0]);
      stream.hot_methods = static_cast<std::int32_t>(*n);
    } else if (arg == "--methods") {
      const auto n = javaflow::util::parse_long(value(), 1, kMaxCount);
      if (!n) return usage(argv[0]);
      methods_limit = *n;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--digest") {
      digest_only = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::vector<javaflow::sim::MachineConfig> configs;
  if (config_name == "all") {
    configs = javaflow::sim::table15_configs();
  } else {
    try {
      configs.push_back(javaflow::sim::config_by_name(config_name));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  const javaflow::workloads::Corpus corpus = javaflow::workloads::make_corpus(
      {/*seed=*/20141215, /*total_methods=*/0});
  std::size_t n = corpus.program.methods.size();
  if (methods_limit >= 0) {
    n = std::min(n, static_cast<std::size_t>(methods_limit));
  }
  std::vector<std::int32_t> methods;
  for (std::size_t i = 0; i < n; ++i) {
    methods.push_back(static_cast<std::int32_t>(i));
  }
  if (methods.empty()) {
    std::fprintf(stderr, "no methods to serve\n");
    return 1;
  }

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!digest_only && out_path != "-") {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    os = &file;
  }

  if (!digest_only) *os << "{\"tool\": \"javaflow_serve\", \"reports\": [";
  bool first = true;
  for (const javaflow::sim::MachineConfig& cfg : configs) {
    javaflow::serve::ServeReport rep;
    try {
      rep = javaflow::serve::serve(corpus.program, methods, cfg, stream);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", cfg.name.c_str(), e.what());
      return 2;
    }
    if (digest_only) {
      std::printf("%s %llu\n", cfg.name.c_str(),
                  static_cast<unsigned long long>(rep.digest()));
      continue;
    }
    if (!first) *os << ", ";
    first = false;
    rep.write_json(*os);
  }
  if (!digest_only) *os << "]}\n";
  return 0;
}
