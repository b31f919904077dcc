// javaflow_explain — critical-path attribution CLI (docs/OBSERVABILITY.md).
//
// Three modes over src/obs/critpath + src/obs/snapshot:
//
//   javaflow_explain <method> [--config <name>] [--scenario bp1|bp2]
//     Runs one cell with the flight recorder and prints the realized
//     critical path: per-category attribution (summing exactly to the
//     run's ticks), the delta against the static lower bound from
//     analysis::compute_bounds, and the slowest on-path hops.
//
//   javaflow_explain --snapshot <out.jfs> [--stride <n>] [--threads <n>]
//     Runs an attribution sweep over the corpus (all Table 15 configs ×
//     both scenarios) and writes a versioned, checksummed snapshot file.
//     Deterministic: the same corpus and stride produce byte-identical
//     files for every thread count.
//
//   javaflow_explain --diff <a.jfs> <b.jfs> [--json] [--max-rows <n>]
//     Diffs two snapshots. Exit codes signal drift for CI wiring:
//     0 = identical, 1 = drift (or incomparable), 2 = usage/IO error.
//
//   javaflow_explain --digest <file.jfs>
//     Prints the snapshot's integrity digest (the identity bench_gate.py
//     records in BENCH_history.json).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/explain.hpp"
#include "obs/snapshot.hpp"
#include "sim/config.hpp"
#include "util/env.hpp"
#include "workloads/corpus.hpp"

namespace {

using javaflow::bytecode::Method;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <method> [--config <name>] [--scenario bp1|bp2]\n"
      "       [--max-steps <n>]\n"
      "       %s --snapshot <out.jfs> [--stride <n>] [--threads <n>]\n"
      "       %s --diff <a.jfs> <b.jfs> [--json] [--max-rows <n>]\n"
      "       %s --digest <file.jfs>\n"
      "       %s --list [substring]\n"
      "  --stride n >= 1; --threads n >= 0 (0 = auto); --max-steps n >= 0\n"
      "  (0 = all); --max-rows n >= 0\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

const Method* find_method(const javaflow::workloads::Corpus& corpus,
                          const std::string& name) {
  for (const Method& m : corpus.program.methods) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void suggest(const javaflow::workloads::Corpus& corpus,
             const std::string& name) {
  int shown = 0;
  for (const Method& m : corpus.program.methods) {
    if (m.name.find(name) == std::string::npos) continue;
    if (shown == 0) std::fprintf(stderr, "did you mean:\n");
    std::fprintf(stderr, "  %s\n", m.name.c_str());
    if (++shown == 10) break;
  }
}

constexpr long kIntMax = std::numeric_limits<int>::max();

int run_diff(const std::string& a_path, const std::string& b_path,
             bool json, std::size_t max_rows) {
  javaflow::obs::Snapshot a, b;
  if (!javaflow::obs::load_snapshot(a_path, a)) {
    std::fprintf(stderr, "cannot load snapshot: %s\n", a_path.c_str());
    return 2;
  }
  if (!javaflow::obs::load_snapshot(b_path, b)) {
    std::fprintf(stderr, "cannot load snapshot: %s\n", b_path.c_str());
    return 2;
  }
  const javaflow::obs::SnapshotDiff d = javaflow::obs::diff_snapshots(a, b);
  if (json) {
    javaflow::obs::write_diff_json(std::cout, d);
  } else {
    javaflow::obs::write_diff_text(std::cout, d, max_rows);
  }
  std::cout.flush();
  return d.identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string method_name, config_name = "Compact2", scenario_name = "bp1";
  std::string snapshot_path, diff_a, diff_b, digest_path;
  int stride = 1, threads = 1;
  long max_steps = 40, max_rows = 20;
  bool json = false, list = false;
  std::string list_filter;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      list = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') list_filter = argv[++i];
    } else if (arg == "--config") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      config_name = v;
    } else if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      scenario_name = v;
    } else if (arg == "--snapshot") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      snapshot_path = v;
    } else if (arg == "--diff") {
      const char* a = value();
      const char* b = value();
      if (a == nullptr || b == nullptr) return usage(argv[0]);
      diff_a = a;
      diff_b = b;
    } else if (arg == "--digest") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      digest_path = v;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--stride") {
      const auto n = javaflow::util::parse_long(value(), 1, kIntMax);
      if (!n) return usage(argv[0]);
      stride = static_cast<int>(*n);
    } else if (arg == "--threads") {
      const auto n = javaflow::util::parse_long(value(), 0, kIntMax);
      if (!n) return usage(argv[0]);
      threads = static_cast<int>(*n);
    } else if (arg == "--max-steps") {
      const auto n = javaflow::util::parse_long(value(), 0);
      if (!n) return usage(argv[0]);
      max_steps = *n;
    } else if (arg == "--max-rows") {
      const auto n = javaflow::util::parse_long(value(), 0);
      if (!n) return usage(argv[0]);
      max_rows = *n;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (method_name.empty()) {
      method_name = arg;
    } else {
      return usage(argv[0]);
    }
  }

  if (!diff_a.empty()) {
    return run_diff(diff_a, diff_b, json,
                    static_cast<std::size_t>(max_rows));
  }

  if (!digest_path.empty()) {
    std::ifstream f(digest_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", digest_path.c_str());
      return 2;
    }
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    javaflow::obs::Snapshot snap;
    if (!javaflow::obs::deserialize_snapshot(bytes, snap)) {
      std::fprintf(stderr, "not a valid snapshot: %s\n",
                   digest_path.c_str());
      return 2;
    }
    std::printf("%016" PRIx64 "\n", javaflow::obs::snapshot_digest(bytes));
    return 0;
  }

  const javaflow::workloads::Corpus corpus =
      javaflow::workloads::make_corpus({});

  if (list) {
    for (const Method& m : corpus.program.methods) {
      if (!list_filter.empty() &&
          m.name.find(list_filter) == std::string::npos) {
        continue;
      }
      std::printf("%s (%zu insts, %s)\n", m.name.c_str(), m.code.size(),
                  m.benchmark.c_str());
    }
    return 0;
  }

  if (!snapshot_path.empty()) {
    javaflow::analysis::SnapshotBuildOptions options;
    options.stride = stride;
    options.threads = threads;
    options.allow_oversubscribe = true;
    const javaflow::obs::Snapshot snap =
        javaflow::analysis::build_snapshot(corpus, options);
    if (!javaflow::obs::save_snapshot(snap, snapshot_path)) {
      std::fprintf(stderr, "cannot write %s\n", snapshot_path.c_str());
      return 2;
    }
    const std::string bytes = javaflow::obs::serialize_snapshot(snap);
    std::size_t attributed = 0;
    for (const javaflow::obs::SnapshotCell& c : snap.cells) {
      if (c.attributed) ++attributed;
    }
    std::fprintf(stderr,
                 "wrote %s: %zu cells (%zu attributed), stride %d, "
                 "digest %016" PRIx64 "\n",
                 snapshot_path.c_str(), snap.cells.size(), attributed,
                 stride, javaflow::obs::snapshot_digest(bytes));
    return 0;
  }

  if (method_name.empty()) return usage(argv[0]);

  const Method* m = find_method(corpus, method_name);
  if (m == nullptr) {
    std::fprintf(stderr, "unknown method: %s\n", method_name.c_str());
    suggest(corpus, method_name);
    return 2;
  }

  javaflow::sim::BranchPredictor::Scenario scenario;
  if (scenario_name == "bp1" || scenario_name == "BP1") {
    scenario = javaflow::sim::BranchPredictor::Scenario::BP1;
  } else if (scenario_name == "bp2" || scenario_name == "BP2") {
    scenario = javaflow::sim::BranchPredictor::Scenario::BP2;
  } else {
    std::fprintf(stderr, "unknown scenario: %s (expected bp1 or bp2)\n",
                 scenario_name.c_str());
    return 2;
  }

  javaflow::sim::MachineConfig config;
  try {
    config = javaflow::sim::config_by_name(config_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const javaflow::analysis::Explanation ex =
      javaflow::analysis::explain_method(*m, corpus.program.pool, config,
                                         scenario);
  std::vector<std::string> labels;
  labels.reserve(m->code.size());
  for (std::size_t i = 0; i < m->code.size(); ++i) {
    labels.push_back(std::to_string(i) + " " +
                     std::string(javaflow::bytecode::op_name(
                         m->code[i].op)));
  }
  javaflow::analysis::write_explanation_text(
      std::cout, ex, labels, static_cast<std::size_t>(max_steps));
  std::cout.flush();
  return ex.ok ? 0 : 1;
}
