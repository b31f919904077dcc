// Shared context for the table-reproduction harnesses.
//
// Environment knobs (all parsed strictly — a malformed value warns on
// stderr and falls back to the default, see src/util/env.hpp):
//   JAVAFLOW_BENCH_STRIDE=<k>      subsample the corpus (keep every k-th
//                                  method) for quick runs; default 1.
//   JAVAFLOW_THREADS=<n>           sweep worker threads: 0 = one per
//                                  hardware thread (default), 1 = serial,
//                                  n >= 2 = exactly n, clamped to the
//                                  hardware-thread count with a stderr
//                                  warning. Output is identical for every
//                                  setting (see docs/PERF.md).
//   JAVAFLOW_BENCH_FILTER=<substr> sweep only methods whose qualified
//                                  name contains <substr> (fast local
//                                  iteration on one method); default all.
//                                  Applied before the stride.
//   JAVAFLOW_CACHE=<mode>          persistent result cache: off (default),
//                                  read or readwrite (docs/PERF.md
//                                  "Result cache").
//   JAVAFLOW_CACHE_DIR=<dir>       cache directory; default
//                                  $XDG_CACHE_HOME/javaflow or
//                                  ~/.cache/javaflow.
// The library reads none of them; this header maps them onto options.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "analysis/report.hpp"
#include "cache/store.hpp"
#include "jvm/interpreter.hpp"
#include "util/env.hpp"
#include "util/parallel_for.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::bench {

inline int env_stride() {
  return static_cast<int>(util::env_int("JAVAFLOW_BENCH_STRIDE", 1, 1));
}

// The sweep's worker count: JAVAFLOW_THREADS resolved (0 = auto, one
// worker per hardware thread) and clamped to the hardware threads with a
// stderr warning, since these harnesses report timings and an
// oversubscribed sweep misreports the machine.
inline int env_threads() {
  return static_cast<int>(util::resolve_clamped(
      static_cast<int>(util::env_int("JAVAFLOW_THREADS", 0, 0))));
}

// Maps JAVAFLOW_CACHE / JAVAFLOW_CACHE_DIR onto the sweep's cache
// options. Unset or empty means off; any value other than "off", "read"
// or "readwrite" warns on stderr and falls back to off.
inline void apply_cache_env(analysis::SweepOptions& options) {
  const std::string_view text = util::env_string("JAVAFLOW_CACHE", "off");
  const std::optional<cache::CacheMode> mode =
      cache::cache_mode_from_name(text);
  if (!mode.has_value()) {
    std::fprintf(stderr,
                 "warning: ignoring JAVAFLOW_CACHE=\"%.*s\" (expected "
                 "\"off\", \"read\", or \"readwrite\"); using off\n",
                 static_cast<int>(text.size()), text.data());
  }
  options.cache = mode.value_or(cache::CacheMode::Off);
  if (options.cache != cache::CacheMode::Off) {
    options.cache_dir = cache::resolve_cache_dir("");
  }
}

// Applies every sweep-option env knob to `options` in one place so all
// table/ablation binaries inherit new knobs for free.
// JAVAFLOW_BENCH_FILTER shapes the method list instead
// (Context::sweep_methods()).
inline void apply_env(analysis::SweepOptions& options) {
  options.stride = env_stride();
  options.threads = env_threads();
  apply_cache_env(options);
}

struct Context {
  workloads::Corpus corpus;
  jvm::Profiler profiler;  // filled by run_drivers()

  Context() : corpus(workloads::make_corpus({})) {}

  // Runs every benchmark driver under the reference interpreter,
  // populating the dynamic-mix profiler (the paper's §5.2 methodology).
  void run_drivers() {
    jvm::Interpreter vm(corpus.program, &profiler);
    for (workloads::Benchmark& b : corpus.benchmarks) {
      b.run(vm);
    }
  }

  std::vector<const bytecode::Method*> all_methods() const {
    std::vector<const bytecode::Method*> out;
    out.reserve(corpus.program.methods.size());
    for (const bytecode::Method& m : corpus.program.methods) {
      out.push_back(&m);
    }
    return out;
  }

  // What a sweep binary sweeps: all_methods() narrowed to the qualified
  // names containing JAVAFLOW_BENCH_FILTER (unset = all). run_sweep
  // strides over this list, so filter + stride 1 sweeps exactly the
  // matching methods.
  std::vector<const bytecode::Method*> sweep_methods() const {
    const std::string_view filter =
        util::env_string("JAVAFLOW_BENCH_FILTER", "");
    std::vector<const bytecode::Method*> out = all_methods();
    std::erase_if(out, [filter](const bytecode::Method* m) {
      return m->name.find(filter) == std::string::npos;
    });
    return out;
  }

  std::vector<const bytecode::Method*> kernel_methods() const {
    std::vector<const bytecode::Method*> out;
    for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
      out.push_back(&corpus.program.methods[i]);
    }
    return out;
  }

  // Filter 2's hot set: the kernels the drivers actually execute are the
  // dynamically weighted top of this corpus (generated methods never run
  // under the interpreter — documented in DESIGN.md).
  std::vector<std::string> hot_method_names() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
      out.push_back(corpus.program.methods[i].name);
    }
    return out;
  }

  analysis::Sweep run_sweep() const {
    analysis::SweepOptions options;
    apply_env(options);
    return analysis::run_sweep(sweep_methods(), corpus.program.pool,
                               hot_method_names(), options);
  }
};

inline void paper_note(const std::string& text) {
  std::printf("paper: %s\n", text.c_str());
}

}  // namespace javaflow::bench
