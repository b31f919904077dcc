// javaflow_trace — per-run event tracing CLI (docs/OBSERVABILITY.md).
//
// Runs one corpus method on one Table 15 configuration under one branch
// scenario with the cycle-accurate EventTracer attached, and writes a
// Chrome trace-event / Perfetto-loadable JSON timeline (one track per
// fabric node, one per network) plus the run's MetricsRegistry.
//
// Usage:
//   javaflow_trace <method> [--config <name>] [--scenario bp1|bp2]
//                  [--out <file>] [--metrics <file>] [--top <n>]
//                  [--list [substr]]
//
// Defaults: --config Compact2, --scenario bp1, --out - (stdout).
// --top N prints the N hottest fabric nodes, mesh links, and opcodes
// (from the run's MetricsRegistry) to stderr, keeping stdout pure JSON.
// The method name must match a corpus method exactly; near-misses are
// suggested. Exit codes: 0 ok, 1 bad usage / unknown method, 2 the
// method does not fit or did not complete on the chosen configuration.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/dataflow_graph.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/env.hpp"
#include "workloads/corpus.hpp"

namespace {

using javaflow::bytecode::Method;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <method> [--config <name>] [--scenario bp1|bp2]\n"
               "       [--out <file>] [--metrics <file>] [--top <n>]\n"
               "       %s --list [substring]\n",
               argv0, argv0);
  return 1;
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

std::string node_label(const Method& m, std::size_t i) {
  return std::to_string(i) + " " +
         std::string(javaflow::bytecode::op_name(m.code[i].op));
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string method_name, config_name = "Compact2", scenario_name = "bp1";
  std::string out_path = "-", metrics_path;
  long top_n = 0;
  bool list = false;
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
    } else if (arg == "--out" || arg == "-o") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--metrics") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      metrics_path = v;
    } else if (arg == "--top") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      const auto n = javaflow::util::parse_long(v, 1);
      if (!n) {
        std::fprintf(stderr, "--top expects a positive count\n");
        return usage(argv[0]);
      }
      top_n = *n;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (method_name.empty()) {
      method_name = arg;
    } else {
      return usage(argv[0]);
    }
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
  if (method_name.empty()) return usage(argv[0]);

  const Method* m = find_method(corpus, method_name);
  if (m == nullptr) {
    std::fprintf(stderr, "unknown method: %s\n", method_name.c_str());
    suggest(corpus, method_name);
    return 1;
  }

  javaflow::sim::BranchPredictor::Scenario scenario;
  if (scenario_name == "bp1" || scenario_name == "BP1") {
    scenario = javaflow::sim::BranchPredictor::Scenario::BP1;
  } else if (scenario_name == "bp2" || scenario_name == "BP2") {
    scenario = javaflow::sim::BranchPredictor::Scenario::BP2;
  } else {
    std::fprintf(stderr, "unknown scenario: %s (expected bp1 or bp2)\n",
                 scenario_name.c_str());
    return 1;
  }

  javaflow::sim::MachineConfig config;
  try {
    config = javaflow::sim::config_by_name(config_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  javaflow::obs::EventTracer tracer;
  javaflow::obs::MetricsRegistry metrics;
  javaflow::sim::EngineOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  javaflow::sim::Engine engine(config, options);

  const javaflow::fabric::DataflowGraph graph =
      javaflow::fabric::build_dataflow_graph(*m, corpus.program.pool);
  javaflow::sim::BranchPredictor predictor(scenario);
  const javaflow::sim::RunMetrics run = engine.run(*m, graph, predictor);

  if (!run.fits) {
    std::fprintf(stderr, "%s does not fit on %s (%d instructions)\n",
                 m->name.c_str(), config_name.c_str(), run.static_size);
    return 2;
  }

  javaflow::obs::TraceMeta meta;
  meta.method = m->name;
  meta.config = config.name;
  meta.scenario = scenario == javaflow::sim::BranchPredictor::Scenario::BP1
                      ? "BP-1"
                      : "BP-2";
  meta.serial_per_mesh = config.serial_per_mesh;
  for (std::size_t i = 0; i < m->code.size(); ++i) {
    meta.node_labels.push_back(node_label(*m, i));
  }

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (out_path != "-") {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    os = &file;
  }
  javaflow::obs::write_chrome_trace(*os, tracer, meta);
  os->flush();

  if (top_n > 0) print_top(metrics, static_cast<std::size_t>(top_n));

  if (!metrics_path.empty()) {
    std::ofstream mf(metrics_path);
    if (!mf) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    metrics.write_json(mf);
    mf << "\n";
  }

  std::fprintf(stderr,
               "%s on %s (%s): %s, %lld ticks, %lld firings, %zu events%s\n",
               m->name.c_str(), config_name.c_str(), meta.scenario.c_str(),
               run.completed ? "completed" : "DID NOT COMPLETE",
               static_cast<long long>(run.ticks),
               static_cast<long long>(run.instructions_fired),
               tracer.events().size(),
               out_path != "-" ? (", wrote " + out_path).c_str() : "");
  return run.completed ? 0 : 2;
}
