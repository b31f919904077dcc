// javaflow_cache — maintenance CLI for the persistent sweep result cache
// (docs/PERF.md "Result cache").
//
//   javaflow_cache stats                    record/cell/byte counts, staleness
//   javaflow_cache prune                    delete stale + corrupt records
//   javaflow_cache invalidate --method SUB  delete records whose method name
//                                           contains SUB (no --method: wipe
//                                           the whole store)
//   javaflow_cache verify [--stride K]      sweep the corpus with the cache
//                                           off, sweep it again from the
//                                           store, compare every cell, and
//                                           remove each disagreeing record
//
// All subcommands honour --dir PATH (default: the bench harnesses'
// resolution — JAVAFLOW_CACHE_DIR, then $XDG_CACHE_HOME/javaflow, then
// ~/.cache/javaflow). Exits 0 on success, 1 when verify finds mismatches,
// 2 on usage errors.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

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

// Runs the corpus sweep twice, with the cache off and then served from
// the store (Read), and compares every cell bit for bit. Each record
// with a cell that disagrees is removed, so the next readwrite sweep
// refills it from execution.
int run_verify(const std::string& dir, int stride, int threads) {
  const workloads::Corpus corpus = workloads::make_corpus({});
  const bytecode::ConstantPool& pool = corpus.program.pool;
  std::vector<const bytecode::Method*> methods;
  methods.reserve(corpus.program.methods.size());
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }

  // No hot set: Filter 2 membership labels samples but is not cached.
  analysis::SweepOptions options;
  options.stride = stride;
  options.threads = threads;
  const analysis::Sweep executed =
      analysis::run_sweep(methods, pool, {}, options);
  options.cache = cache::CacheMode::Read;
  options.cache_dir = dir;
  const analysis::Sweep served =
      analysis::run_sweep(methods, pool, {}, options);

  // Sample i belongs to the (i / cells_per_method)-th picked method, and
  // the stride picks every stride-th corpus method.
  const std::size_t cells_per_method =
      executed.configs.size() * analysis::SweepOptions::scenarios.size();
  const cache::CacheStore store(dir);
  const cache::Hash128 pool_hash = cache::hash_pool(pool);
  std::size_t mismatches = 0;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < executed.samples.size(); ++i) {
    const analysis::SweepSample& want = executed.samples[i];
    if (served.samples[i] == want) continue;
    ++mismatches;
    std::fprintf(stderr, "javaflow_cache: MISMATCH %s [%s, scenario %d]\n",
                 want.method.c_str(),
                 executed.configs[want.config_index].name.c_str(),
                 static_cast<int>(want.scenario));
    const bytecode::Method& m =
        *methods[i / cells_per_method * static_cast<std::size_t>(stride)];
    if (store.remove(
            cache::record_key(cache::hash_method_body(m), pool_hash))) {
      ++removed;
    }
  }

  std::printf(
      "verify: %zu cells (%zu cached, %zu uncached), %zu mismatching, "
      "%zu record(s) removed\n",
      executed.samples.size(), served.cache.hit_cells,
      served.cache.miss_cells, mismatches, removed);
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "javaflow_cache: verify FAILED — %zu cell(s) differed "
                 "from execution (their records are removed; the next "
                 "readwrite sweep refills them)\n",
                 mismatches);
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
    std::printf("stale records:   %ju (other format versions or engine "
                "fingerprints)\n",
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
