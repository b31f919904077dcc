// javaflow_explain — critical-path attribution CLI (docs/OBSERVABILITY.md).
//
// Three modes over src/obs/critpath + src/obs/snapshot:
//
//   javaflow_explain <method> [--config <name>] [--scenario bp1|bp2]
//                    [--trace <file>] [--metrics <file>] [--top <n>]
//     Runs one cell with the flight recorder and prints the realized
//     critical path: per-category attribution (summing exactly to the
//     run's ticks), the delta against the static lower bound from
//     analysis::compute_bounds, and the slowest on-path hops. The same
//     run can also carry the cycle-accurate event tracer and the metrics
//     registry: --trace writes a Chrome trace-event / Perfetto JSON
//     timeline (one track per fabric node, one per network), --metrics
//     the run's MetricsRegistry JSON, and --top N lists the N hottest
//     fabric nodes, mesh links and opcodes on stderr, so stdout stays
//     the explanation. All three are written whenever the method fits,
//     even if it does not complete. Exit codes: 0 explained, 1 not
//     explained (does not fit, timeout, broken attribution), 2 usage,
//     IO error or unknown method.
//
//   javaflow_explain --snapshot <out.jfs> [--stride <n>] [--threads <n>]
//     Runs an analysis sweep over the corpus (all Table 15 configs ×
//     both scenarios), writes a versioned, checksummed snapshot file and
//     prints its integrity digest on stderr. Deterministic: the same
//     corpus and stride produce byte-identical files for every thread
//     count.
//
//   javaflow_explain --diff <a.jfs> <b.jfs> [--json] [--max-rows <n>]
//     Diffs two snapshots. Exit codes signal drift for CI wiring:
//     0 = identical, 1 = drift (or incomparable), 2 = usage/IO error.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explain.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
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
      "       [--max-steps <n>] [--trace <file>] [--metrics <file>]\n"
      "       [--top <n>]\n"
      "       %s --snapshot <out.jfs> [--stride <n>] [--threads <n>]\n"
      "       %s --diff <a.jfs> <b.jfs> [--json] [--max-rows <n>]\n"
      "       %s --list [substring]\n"
      "  --stride n >= 1; --threads n >= 0 (0 = auto); --max-steps n >= 0\n"
      "  (0 = all); --max-rows n >= 0; --top n >= 1\n",
      argv0, argv0, argv0, argv0);
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

// --top N: hottest fabric nodes / mesh links / opcodes by count, ties
// broken by key so the listing is deterministic.
void print_top(const javaflow::obs::MetricsRegistry& metrics,
               std::size_t top_n) {
  using Entry = std::pair<std::uint64_t, std::string>;
  auto print = [&](const char* title, std::vector<Entry> entries) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.first != b.first ? a.first > b.first
                                                 : a.second < b.second;
                     });
    if (entries.size() > top_n) entries.resize(top_n);
    std::fprintf(stderr, "top %s:\n", title);
    for (const Entry& e : entries) {
      std::fprintf(stderr, "  %10llu  %s\n",
                   static_cast<unsigned long long>(e.first),
                   e.second.c_str());
    }
  };

  std::vector<Entry> nodes;
  for (std::size_t slot = 0; slot < metrics.firings_by_node.size(); ++slot) {
    if (metrics.firings_by_node[slot] == 0) continue;
    nodes.emplace_back(metrics.firings_by_node[slot],
                       "slot " + std::to_string(slot));
  }
  print("nodes (firings)", std::move(nodes));

  std::vector<Entry> links;
  for (const auto& [key, load] : metrics.mesh_link_load) {
    links.emplace_back(
        load, "slot " + std::to_string(key.first) + " " +
                  std::string(javaflow::obs::link_dir_name(
                      static_cast<javaflow::obs::LinkDir>(key.second))));
  }
  print("mesh links (traversals)", std::move(links));

  std::vector<Entry> opcodes;
  for (std::size_t op = 0; op < metrics.firings_by_opcode.size(); ++op) {
    if (metrics.firings_by_opcode[op] == 0) continue;
    opcodes.emplace_back(
        metrics.firings_by_opcode[op],
        std::string(javaflow::bytecode::op_name(
            static_cast<javaflow::bytecode::Op>(op))));
  }
  print("opcodes (firings)", std::move(opcodes));
}

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
  std::string snapshot_path, diff_a, diff_b;
  std::string trace_path, metrics_path;
  int stride = 1, threads = 1;
  long max_steps = 40, max_rows = 20, top_n = 0;
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
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      trace_path = v;
    } else if (arg == "--metrics") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      metrics_path = v;
    } else if (arg == "--top") {
      const auto n = javaflow::util::parse_long(value(), 1);
      if (!n) return usage(argv[0]);
      top_n = *n;
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

  // Only the requested hooks are attached: without them the run is the
  // plain flight-recorded explanation.
  javaflow::obs::EventTracer tracer;
  javaflow::obs::MetricsRegistry metrics;
  const javaflow::analysis::Explanation ex =
      javaflow::analysis::explain_method(
          *m, corpus.program.pool, config, scenario,
          trace_path.empty() ? nullptr : &tracer,
          metrics_path.empty() && top_n == 0 ? nullptr : &metrics);
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

  if (ex.metrics.fits) {
    if (!trace_path.empty()) {
      javaflow::obs::TraceMeta meta;
      meta.method = m->name;
      meta.config = config.name;
      meta.scenario = ex.scenario;
      meta.serial_per_mesh = config.serial_per_mesh;
      meta.node_labels = std::move(labels);
      std::ofstream f(trace_path);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
        return 2;
      }
      javaflow::obs::write_chrome_trace(f, tracer, meta);
    }
    if (!metrics_path.empty()) {
      std::ofstream f(metrics_path);
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
        return 2;
      }
      metrics.write_json(f);
      f << "\n";
    }
    if (top_n > 0) print_top(metrics, static_cast<std::size_t>(top_n));
  }
  return ex.ok ? 0 : 1;
}
