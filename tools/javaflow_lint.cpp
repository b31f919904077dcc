// javaflow_lint — static verification of the corpus' dataflow graphs,
// placements and token ordering (rule catalogue in docs/LINT.md). Every
// run includes the static bound analyzer and the token-flow model
// checker (docs/ANALYSIS.md), in the same pass over the corpus.
//
//   javaflow_lint                          lint the full 1605-method corpus
//                                          on every Table 15 configuration
//   javaflow_lint --config Compact2        one configuration only
//   javaflow_lint --json                   machine-readable findings
//   javaflow_lint --file corpus.jfasm      lint a program image instead
//   javaflow_lint --bounds-sweep 32        cross-validate the bounds
//                                          against a stride-32 engine
//                                          sweep and report tightness
//
// Exits 0 when no error-severity finding is raised, 1 otherwise (warnings
// never fail the run), 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/figure_of_merit.hpp"
#include "analysis/lint.hpp"
#include "bytecode/textio.hpp"
#include "sim/config.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "workloads/corpus.hpp"

using namespace javaflow;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: javaflow_lint [options]\n"
      "  --config NAME     lint placements on one Table 15 configuration\n"
      "                    (repeatable; default: all six)\n"
      "  --file PATH       lint a .jfasm program image instead of the\n"
      "                    built-in corpus\n"
      "  --kernels-only    restrict the corpus to the hand-written kernels\n"
      "  --methods N       corpus size, N >= 0 (default 1605, Table 16)\n"
      "  --threads N       worker threads, N >= 0 (0 = auto, default;\n"
      "                    1 = serial)\n"
      "  --buffer-cap N    per-node operand buffer capacity, N >= 1\n"
      "                    (JF-E005, JF-E008)\n"
      "  --fanout-cap N    consumer-address array limit, N >= 1 (JF-E006)\n"
      "  --no-warnings     suppress warning-severity rules\n"
      "  --bounds-sweep N  execute a stride-N (N >= 1) sweep with bound\n"
      "                    cross-validation (JF-E010) and report\n"
      "                    predicted/actual tightness per configuration\n"
      "  --json            emit the report as JSON on stdout\n"
      "  --quiet           summary only (text mode)\n");
  return 2;
}

// Strict parse into an int within [lo, INT_MAX]; false on anything else.
bool parse_int(const char* s, int lo, int& out) {
  const std::optional<long> v =
      util::parse_long(s, lo, std::numeric_limits<int>::max());
  if (!v) return false;
  out = static_cast<int>(*v);
  return true;
}

// Predicted/actual tick-ratio distribution for one configuration: how
// tight the static lower bound is against what the engine measured.
// Ratios live in (0, 1] when the bound is sound; deciles histogrammed.
struct TightnessRow {
  std::string config;
  std::size_t cells = 0;
  double ratio_sum = 0.0;
  std::size_t histogram[10] = {};

  void add(double ratio) {
    ++cells;
    ratio_sum += ratio;
    int bin = static_cast<int>(ratio * 10.0);
    bin = std::clamp(bin, 0, 9);
    ++histogram[bin];
  }
};

// Tightness over the sweep's completed cells, against the per-cell lower
// bounds the bounds sweep recorded from its own plans. The sweep runs
// with the result cache off, so every rated cell was executed.
std::vector<TightnessRow> measure_tightness(const analysis::Sweep& sweep) {
  std::vector<TightnessRow> rows(sweep.configs.size());
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    rows[ci].config = sweep.configs[ci].name;
  }
  for (std::size_t i = 0; i < sweep.samples.size(); ++i) {
    const analysis::SweepSample& s = sweep.samples[i];
    const sim::RunMetrics& mt = s.metrics;
    const std::int64_t lb = sweep.lower_bounds[i];
    if (!mt.fits || !mt.completed || mt.timed_out || mt.exception ||
        mt.ticks <= 0 || lb <= 0 || lb >= analysis::kNoBound) {
      continue;
    }
    rows[s.config_index].add(static_cast<double>(lb) /
                             static_cast<double>(mt.ticks));
  }
  return rows;
}

std::string tightness_text(const std::vector<TightnessRow>& rows) {
  std::string out = "bound tightness (static lower bound / measured ticks):\n";
  char buf[256];
  for (const TightnessRow& r : rows) {
    const double mean =
        r.cells > 0 ? r.ratio_sum / static_cast<double>(r.cells) : 0.0;
    std::snprintf(buf, sizeof buf, "  %-10s %6zu cells, mean %.3f  [",
                  r.config.c_str(), r.cells, mean);
    out += buf;
    for (int b = 0; b < 10; ++b) {
      std::snprintf(buf, sizeof buf, "%s%zu", b > 0 ? " " : "",
                    r.histogram[b]);
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

std::string tightness_json(const std::vector<TightnessRow>& rows) {
  std::ostringstream os;
  os << "\"tightness\":[";
  char buf[256];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TightnessRow& r = rows[i];
    const double mean =
        r.cells > 0 ? r.ratio_sum / static_cast<double>(r.cells) : 0.0;
    os << (i > 0 ? "," : "") << "{\"config\":\"";
    util::json_escape(os, r.config);
    std::snprintf(buf, sizeof buf,
                  "\",\"cells\":%zu,\"mean\":%.6f,\"histogram\":[",
                  r.cells, mean);
    os << buf;
    for (int b = 0; b < 10; ++b) {
      os << (b > 0 ? "," : "") << r.histogram[b];
    }
    os << "]}";
  }
  os << "]";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> config_names;
  std::string file;
  bool kernels_only = false;
  bool json = false;
  bool quiet = false;
  int bounds_sweep_stride = 0;  // 0 = no cross-validation sweep
  int methods = 1605;
  int threads = 0;
  analysis::LintOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = next();
      if (v == nullptr) return usage();
      config_names.emplace_back(v);
    } else if (arg == "--file") {
      const char* v = next();
      if (v == nullptr) return usage();
      file = v;
    } else if (arg == "--kernels-only") {
      kernels_only = true;
    } else if (arg == "--methods") {
      if (!parse_int(next(), 0, methods)) return usage();
    } else if (arg == "--threads") {
      if (!parse_int(next(), 0, threads)) return usage();
    } else if (arg == "--buffer-cap") {
      if (!parse_int(next(), 1, options.node_buffer_capacity)) return usage();
    } else if (arg == "--fanout-cap") {
      if (!parse_int(next(), 1, options.mesh_fanout_limit)) return usage();
    } else if (arg == "--no-warnings") {
      options.warnings = false;
    } else if (arg == "--bounds-sweep") {
      if (!parse_int(next(), 1, bounds_sweep_stride)) return usage();
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "javaflow_lint: unknown option '%s'\n",
                   arg.c_str());
      return usage();
    }
  }

  std::vector<sim::MachineConfig> configs;
  try {
    if (config_names.empty()) {
      configs = sim::table15_configs();
    } else {
      for (const std::string& name : config_names) {
        configs.push_back(sim::config_by_name(name));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "javaflow_lint: %s\n", e.what());
    return 2;
  }

  bytecode::Program program;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "javaflow_lint: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      program = bytecode::parse_program(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javaflow_lint: %s: %s\n", file.c_str(), e.what());
      return 2;
    }
  } else {
    workloads::CorpusOptions corpus_options;
    if (kernels_only) corpus_options.total_methods = 0;
    else corpus_options.total_methods = methods;
    program = workloads::make_corpus(corpus_options).program;
  }

  analysis::LintReport report =
      analysis::lint_corpus(program, configs, options, threads);

  std::vector<TightnessRow> tightness;
  if (bounds_sweep_stride > 0) {
    std::vector<const bytecode::Method*> sweep_methods;
    sweep_methods.reserve(program.methods.size());
    for (const bytecode::Method& m : program.methods) {
      sweep_methods.push_back(&m);
    }
    analysis::SweepOptions sweep_options;
    sweep_options.configs = configs;
    sweep_options.stride = bounds_sweep_stride;
    sweep_options.threads = threads;
    sweep_options.analyze = true;
    const analysis::Sweep sweep = analysis::run_sweep(
        sweep_methods, program.pool, {}, sweep_options);
    analysis::LintReport sr;
    sr.findings = sweep.lint_findings;
    sr.errors = sweep.lint_errors;
    sr.warnings = sweep.lint_warnings;
    report.merge(std::move(sr));
    tightness = measure_tightness(sweep);
  }

  if (json) {
    std::string out = analysis::to_json(report, configs);
    if (!tightness.empty()) {
      const std::size_t brace = out.rfind('}');
      if (brace != std::string::npos) {
        out.insert(brace, ',' + tightness_json(tightness));
      }
    }
    std::cout << out << '\n';
  } else if (quiet) {
    std::cout << analysis::to_summary(report) << '\n';
  } else {
    std::cout << analysis::to_text(report);
    if (!tightness.empty()) std::cout << tightness_text(tightness);
  }
  return report.clean() ? 0 : 1;
}
