// javaflow_cache — maintenance CLI for the persistent sweep result cache
// (docs/PERF.md "Result cache").
//
//   javaflow_cache stats                    record/cell/byte counts, staleness
//   javaflow_cache prune                    delete stale + corrupt records
//   javaflow_cache invalidate --method SUB  delete records whose method name
//                                           contains SUB (no --method: wipe
//                                           the whole store)
//   javaflow_cache verify [--stride K]      re-execute the corpus sweep in
//                                           verify mode and compare every
//                                           cached cell bit-for-bit
//
// All subcommands honour --dir PATH (default: the same resolution the
// sweep uses — JAVAFLOW_CACHE_DIR, then $XDG_CACHE_HOME/javaflow, then
// ~/.cache/javaflow). Exits 0 on success, 1 when verify finds mismatches,
// 2 on usage errors.
#include <cstdio>
#include <limits>
#include <string>

#include "analysis/figure_of_merit.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "util/env.hpp"
#include "workloads/corpus.hpp"

using namespace javaflow;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: javaflow_cache <stats|prune|invalidate|verify> [options]\n"
      "  --dir PATH        cache directory (default: JAVAFLOW_CACHE_DIR,\n"
      "                    then $XDG_CACHE_HOME/javaflow, then\n"
      "                    ~/.cache/javaflow)\n"
      "  --method SUB      invalidate only: delete records whose method\n"
      "                    name contains SUB (omit to wipe the store)\n"
      "  --stride K        verify only: keep every K-th corpus method,\n"
      "                    K >= 1 (default 1 = the full corpus)\n"
      "  --threads N       verify only: sweep workers, N >= 0 (0 = auto;\n"
      "                    default 1 = serial)\n");
  return 2;
}

constexpr long kIntMax = std::numeric_limits<int>::max();

int run_verify(const std::string& dir, int stride, int threads) {
  workloads::Corpus corpus = workloads::make_corpus({});
  std::vector<const bytecode::Method*> methods;
  methods.reserve(corpus.program.methods.size());
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }

  analysis::SweepOptions options;
  options.stride = stride;
  options.threads = threads;
  options.cache = cache::CacheMode::Verify;
  options.cache_dir = dir;
  const analysis::Sweep sweep = analysis::run_sweep(
      methods, corpus.program.pool, hot, options);

  std::printf(
      "verify: %zu cells (%zu cached, %zu uncached), %zu mismatching, "
      "%zu record(s) repaired\n",
      sweep.samples.size(), sweep.cache.hit_cells, sweep.cache.miss_cells,
      sweep.cache.verify_mismatch_cells, sweep.cache.stored_records);
  if (sweep.cache.verify_mismatch_cells != 0) {
    std::fprintf(stderr,
                 "javaflow_cache: verify FAILED — %zu cell(s) differed "
                 "from fresh execution (now repaired; rerun to confirm)\n",
                 sweep.cache.verify_mismatch_cells);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string dir;
  std::string method;
  bool have_method = false;
  int stride = 1;
  int threads = 1;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      dir = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (v == nullptr) return usage();
      method = v;
      have_method = true;
    } else if (arg == "--stride") {
      const auto n = util::parse_long(next(), 1, kIntMax);
      if (!n) return usage();
      stride = static_cast<int>(*n);
    } else if (arg == "--threads") {
      const auto n = util::parse_long(next(), 0, kIntMax);
      if (!n) return usage();
      threads = static_cast<int>(*n);
    } else {
      std::fprintf(stderr, "javaflow_cache: unknown option '%s'\n",
                   arg.c_str());
      return usage();
    }
  }

  const std::string resolved = cache::resolve_cache_dir(dir);

  if (cmd == "stats") {
    const cache::CacheStore store(resolved);
    const cache::CacheStore::Stats s = store.stats(cache::record_fingerprint());
    std::printf("dir:             %s\n", resolved.c_str());
    std::printf("fingerprint:     %u\n", cache::record_fingerprint());
    std::printf("record files:    %ju\n", s.files);
    std::printf("bytes:           %ju\n", s.bytes);
    std::printf("cells:           %ju\n", s.cells);
    std::printf("stale records:   %ju (other engine fingerprints)\n",
                s.stale_files);
    std::printf("corrupt records: %ju\n", s.corrupt_files);
    return 0;
  }
  if (cmd == "prune") {
    const cache::CacheStore store(resolved);
    const std::uintmax_t removed = store.prune(cache::record_fingerprint());
    std::printf("pruned %ju stale/corrupt record file(s) from %s\n",
                removed, resolved.c_str());
    return 0;
  }
  if (cmd == "invalidate") {
    const cache::CacheStore store(resolved);
    const std::uintmax_t removed = store.invalidate(method);
    if (have_method) {
      std::printf("invalidated %ju record(s) matching \"%s\" in %s\n",
                  removed, method.c_str(), resolved.c_str());
    } else {
      std::printf("invalidated all %ju record(s) in %s\n", removed,
                  resolved.c_str());
    }
    return 0;
  }
  if (cmd == "verify") {
    return run_verify(resolved, stride, threads);
  }

  std::fprintf(stderr, "javaflow_cache: unknown command '%s'\n",
               cmd.c_str());
  return usage();
}
