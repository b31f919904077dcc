// jfbench — the measuring program behind perfbench/run.py.
//
//   jfbench --provenance
//   jfbench <sweep_cold|sweep_fill|sweep_warm|serve_backlog> --seed <n>
//           [--seconds <s>] [--trace 0|1] [--work-dir <dir>]
//           [--run-id <id>] [--reference-snapshot <file.jfs>]
//
// sweep_fill fills <work-dir>/cache for a later sweep_warm process.
//
// Prints one JSON object on stdout: raw timings, digests, peak RSS, the
// correctness checks and, with --trace 1, the per-layer metrics. run.py
// turns those into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jfbench <sweep_cold|sweep_fill|sweep_warm|serve_backlog> "
               "--seed <n> [--seconds <s>] [--trace 0|1]\n"
               "       [--work-dir <dir>] [--run-id <id>] "
               "[--reference-snapshot <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::string(argv[1]) == "--provenance") {
    // What only the binary knows; run.py adds the host's side.
    std::printf("%s\n", jfbench::JsonObject()
                            .str("compiler", JFBENCH_COMPILER)
                            .str("build_type", JFBENCH_BUILD_TYPE)
                            .integer("hardware_threads",
                                     std::thread::hardware_concurrency())
                            .dump()
                            .c_str());
    return 0;
  }
  jfbench::Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      opt.trace = v == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--run-id") {
      opt.run_id = v;
    } else if (arg == "--reference-snapshot") {
      opt.reference_snapshot = v;
    } else {
      return usage();
    }
  }

  try {
    if (opt.workload == "sweep_fill") return jfbench::run_sweep_fill(opt);
    if (opt.workload == "sweep_cold" || opt.workload == "sweep_warm") {
      return jfbench::run_sweep_workload(opt);
    }
    if (opt.workload == "serve_backlog") return jfbench::run_serve_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
