// Tests for the persistent sweep result cache (src/cache/): key
// derivation stability, record-format robustness (truncation, bit rot,
// stale fingerprints all degrade to a miss), store round trips, and the
// run_sweep integration — warm hits, the off-vs-read comparison,
// corpus dedup, and the method filter must all reproduce cold results
// bit-for-bit, and no environment variable may turn the cache on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "cache/hash.hpp"
#include "cache/key.hpp"
#include "cache/record.hpp"
#include "cache/store.hpp"
#include "serve/server.hpp"
#include "sim/config.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// Fresh per-test store directory under gtest's temp root.
std::string temp_store(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "javaflow_cache_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---- hashing ----

TEST(CacheHash, StableAndDiscriminating) {
  const cache::Hash128 a = cache::hash_bytes("abc");
  EXPECT_EQ(a, cache::hash_bytes("abc"));
  EXPECT_NE(a, cache::hash_bytes("abd"));
  EXPECT_NE(a, cache::hash_bytes(""));
  EXPECT_NE(cache::hash_bytes(""), cache::Hash128{});
}

TEST(CacheHash, StringsAreLengthPrefixed) {
  cache::Hasher h1, h2;
  h1.str("ab");
  h1.str("c");
  h2.str("a");
  h2.str("bc");
  EXPECT_NE(h1.digest(), h2.digest());
}

TEST(CacheHash, HexSpellingIs32LowercaseDigits) {
  const std::string hex = cache::to_hex(cache::hash_bytes("abc"));
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  EXPECT_EQ(cache::to_hex(cache::Hash128{}), std::string(32, '0'));
}

// ---- key derivation ----

bytecode::Method tiny_method(Program& p, const std::string& name,
                             const std::string& benchmark,
                             std::int32_t constant) {
  Assembler a(p, name, benchmark);
  a.returns(ValueType::Int);
  a.iconst(constant).op(Op::ireturn);
  return a.build();
}

TEST(CacheKey, BodyHashIgnoresReportingMetadata) {
  Program p;
  const bytecode::Method a = tiny_method(p, "bm.a()I", "bench_a", 7);
  const bytecode::Method b = tiny_method(p, "other.b()I", "bench_b", 7);
  const bytecode::Method c = tiny_method(p, "bm.a()I", "bench_a", 8);
  // Name and benchmark are reporting metadata, not simulation inputs.
  EXPECT_EQ(cache::hash_method_body(a), cache::hash_method_body(b));
  // A one-operand body change must move the digest.
  EXPECT_NE(cache::hash_method_body(a), cache::hash_method_body(c));
}

TEST(CacheKey, ConfigDigestsAreDistinctAcrossTable15) {
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_NE(configs[i].canonical_text().find(configs[i].name),
              std::string::npos);
    for (std::size_t j = i + 1; j < configs.size(); ++j) {
      EXPECT_NE(cache::hash_config(configs[i]), cache::hash_config(configs[j]))
          << configs[i].name << " vs " << configs[j].name;
    }
  }
}

TEST(CacheKey, CellKeyCoversEveryInput) {
  const cache::Hash128 body = cache::hash_bytes("body");
  const cache::Hash128 pool = cache::hash_bytes("pool");
  const cache::Hash128 cfg = cache::hash_bytes("cfg");
  const cache::Hash128 eng = cache::hash_bytes("eng");
  const cache::Hash128 base = cache::cell_key(
      body, pool, cfg, eng, sim::BranchPredictor::Scenario::BP1);
  EXPECT_EQ(base, cache::cell_key(body, pool, cfg, eng,
                                  sim::BranchPredictor::Scenario::BP1));
  EXPECT_NE(base, cache::cell_key(body, pool, cfg, eng,
                                  sim::BranchPredictor::Scenario::BP2));
  EXPECT_NE(base, cache::cell_key(pool, body, cfg, eng,
                                  sim::BranchPredictor::Scenario::BP1));
  EXPECT_NE(base,
            cache::cell_key(body, pool, cfg, eng,
                            sim::BranchPredictor::Scenario::BP1,
                            cache::kEngineFingerprint + 1));
}

// ---- record format ----

cache::MethodRecord sample_record() {
  cache::MethodRecord r;
  r.fingerprint = cache::kEngineFingerprint;
  r.method_name = "bm.sample()I";
  for (int i = 0; i < 3; ++i) {
    cache::CellRecord cell;
    cell.key = cache::hash_bytes("cell" + std::to_string(i));
    cell.static_insts = 10 + i;
    cell.back_jumps = i;
    cell.metrics.fits = true;
    cell.metrics.completed = true;
    cell.metrics.ticks = 1000 + i;
    cell.metrics.mesh_cycles = 250 + i;
    cell.metrics.instructions_fired = 480 + i;
    cell.metrics.distinct_fired = 12;
    cell.metrics.static_size = 14;
    cell.metrics.max_slot = 13;
    cell.metrics.mesh_messages = 77;
    cell.metrics.serial_messages = 5;
    cell.metrics.ticks_exec_1plus = 900;
    cell.metrics.ticks_exec_2plus = 300;
    r.cells.push_back(cell);
  }
  return r;
}

TEST(CacheRecord, RoundTripIsByteStable) {
  const cache::MethodRecord r = sample_record();
  const std::string bytes = cache::serialize_record(r);
  EXPECT_EQ(bytes, cache::serialize_record(r));

  cache::MethodRecord back;
  ASSERT_TRUE(
      cache::deserialize_record(bytes, cache::kEngineFingerprint, back));
  EXPECT_EQ(back, r);
  // Re-serializing the parsed record reproduces the original bytes.
  EXPECT_EQ(cache::serialize_record(back), bytes);
}

TEST(CacheRecord, RejectsEveryTruncation) {
  const std::string bytes = cache::serialize_record(sample_record());
  cache::MethodRecord out;
  EXPECT_FALSE(cache::deserialize_record("", cache::kEngineFingerprint, out));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(cache::deserialize_record(bytes.substr(0, n),
                                           cache::kEngineFingerprint, out))
        << "prefix of " << n << " bytes parsed";
  }
  // Trailing garbage is an anomaly too.
  EXPECT_FALSE(cache::deserialize_record(bytes + "x",
                                         cache::kEngineFingerprint, out));
}

TEST(CacheRecord, RejectsEverySingleBitOfRot) {
  const std::string bytes = cache::serialize_record(sample_record());
  cache::MethodRecord out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(
        cache::deserialize_record(bad, cache::kEngineFingerprint, out))
        << "flip at byte " << i << " parsed";
  }
}

TEST(CacheRecord, StaleFingerprintIsAMissButStillWellFormed) {
  cache::MethodRecord r = sample_record();
  r.fingerprint = cache::kEngineFingerprint + 1;
  const std::string bytes = cache::serialize_record(r);
  cache::MethodRecord out;
  EXPECT_FALSE(
      cache::deserialize_record(bytes, cache::kEngineFingerprint, out));
  // Maintenance walks can still read it to count it as stale.
  ASSERT_TRUE(cache::deserialize_record_any_fingerprint(bytes, out));
  EXPECT_EQ(out, r);
}

// ---- store ----

TEST(CacheStore, SaveLoadRemoveRoundTrip) {
  const cache::CacheStore store(temp_store("roundtrip"));
  const cache::Hash128 key = cache::hash_bytes("key");
  const cache::MethodRecord r = sample_record();

  cache::MethodRecord out;
  EXPECT_FALSE(store.load(key, cache::kEngineFingerprint, out));
  ASSERT_TRUE(store.save(key, r));
  ASSERT_TRUE(store.load(key, cache::kEngineFingerprint, out));
  EXPECT_EQ(out, r);
  // A fingerprint the record was not produced under is a miss.
  EXPECT_FALSE(store.load(key, cache::kEngineFingerprint + 1, out));
  EXPECT_TRUE(store.remove(key));
  EXPECT_FALSE(store.load(key, cache::kEngineFingerprint, out));
}

TEST(CacheStore, CorruptAndStaleFilesAreCountedAndPruned) {
  const cache::CacheStore store(temp_store("prune"));
  ASSERT_TRUE(store.save(cache::hash_bytes("good"), sample_record()));
  cache::MethodRecord stale = sample_record();
  stale.fingerprint = cache::kEngineFingerprint + 1;
  ASSERT_TRUE(store.save(cache::hash_bytes("stale"), stale));
  const cache::Hash128 bad_key = cache::hash_bytes("bad");
  ASSERT_TRUE(store.save(bad_key, sample_record()));
  {
    std::ofstream f(store.path_for(bad_key),
                    std::ios::binary | std::ios::app);
    f << "rot";
  }

  cache::MethodRecord out;
  EXPECT_FALSE(store.load(bad_key, cache::kEngineFingerprint, out));

  const cache::CacheStore::Stats s = store.stats(cache::kEngineFingerprint);
  EXPECT_EQ(s.files, 3u);
  EXPECT_EQ(s.stale_files, 1u);
  EXPECT_EQ(s.corrupt_files, 1u);
  EXPECT_EQ(s.cells, sample_record().cells.size());

  EXPECT_EQ(store.prune(cache::kEngineFingerprint), 2u);
  const cache::CacheStore::Stats after = store.stats(cache::kEngineFingerprint);
  EXPECT_EQ(after.files, 1u);
  EXPECT_EQ(after.stale_files, 0u);
  EXPECT_EQ(after.corrupt_files, 0u);
}

TEST(CacheStore, InvalidateMatchesStoredMethodNames) {
  const cache::CacheStore store(temp_store("invalidate"));
  cache::MethodRecord a = sample_record();
  a.method_name = "scimark.fft.transform()V";
  cache::MethodRecord b = sample_record();
  b.method_name = "crypto.aes.round()V";
  ASSERT_TRUE(store.save(cache::hash_bytes("a"), a));
  ASSERT_TRUE(store.save(cache::hash_bytes("b"), b));

  EXPECT_EQ(store.invalidate("scimark"), 1u);
  cache::MethodRecord out;
  EXPECT_FALSE(store.load(cache::hash_bytes("a"), cache::kEngineFingerprint,
                          out));
  EXPECT_TRUE(store.load(cache::hash_bytes("b"), cache::kEngineFingerprint,
                         out));
  // No substring: wipe everything.
  EXPECT_EQ(store.invalidate(""), 1u);
  EXPECT_EQ(store.stats(cache::kEngineFingerprint).files, 0u);
}

// ---- run_sweep integration ----

const workloads::Corpus& corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

analysis::Sweep sweep_corpus(const analysis::SweepOptions& options) {
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus().program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus().kernel_methods; ++i) {
    hot.push_back(corpus().program.methods[i].name);
  }
  return analysis::run_sweep(methods, corpus().program.pool, hot, options);
}

analysis::Sweep corpus_sweep(cache::CacheMode mode, const std::string& dir,
                             int threads = 1, int stride = 61,
                             const std::string& filter = "") {
  analysis::SweepOptions options;
  options.stride = stride;
  options.threads = threads;
  options.allow_oversubscribe = true;  // single-hardware-thread CI hosts
  options.cache = mode;
  options.cache_dir = dir;
  options.method_filter = filter;
  return sweep_corpus(options);
}

TEST(CacheSweep, WarmHitsReproduceColdResults) {
  const std::string dir = temp_store("warm");
  const analysis::Sweep cold = corpus_sweep(cache::CacheMode::ReadWrite, dir);
  ASSERT_GT(cold.samples.size(), 100u);
  EXPECT_EQ(cold.cache.hit_cells, 0u);
  EXPECT_EQ(cold.cache.miss_cells + cold.cache.dedup_cells,
            cold.samples.size());
  EXPECT_GT(cold.cache.stored_records, 0u);

  const analysis::Sweep warm = corpus_sweep(cache::CacheMode::Read, dir);
  EXPECT_EQ(warm.samples, cold.samples);
  EXPECT_EQ(warm.cache.miss_cells, 0u);
  EXPECT_EQ(warm.cache.hit_cells + warm.cache.dedup_cells,
            warm.samples.size());
  EXPECT_EQ(warm.cache.stored_records, 0u);

  // Cache off reproduces the same samples (ground truth).
  const analysis::Sweep off = corpus_sweep(cache::CacheMode::Off, dir);
  EXPECT_EQ(off.samples, cold.samples);
  EXPECT_EQ(off.cache.mode, "off");
}

TEST(CacheSweep, WarmResultsAreThreadCountInvariant) {
  const std::string dir = temp_store("threads");
  const analysis::Sweep cold = corpus_sweep(cache::CacheMode::ReadWrite, dir,
                                            /*threads=*/1);
  const analysis::Sweep warm4 = corpus_sweep(cache::CacheMode::Read, dir,
                                             /*threads=*/4);
  EXPECT_EQ(warm4.samples, cold.samples);
  EXPECT_EQ(warm4.cache.miss_cells, 0u);
}

TEST(CacheSweep, CorruptedRecordDegradesToAMiss) {
  const std::string dir = temp_store("corrupt");
  const analysis::Sweep cold = corpus_sweep(cache::CacheMode::ReadWrite, dir);

  // Vandalize one record: truncate it mid-file.
  const cache::CacheStore store(dir);
  std::string victim;
  store.walk(cache::record_fingerprint(),
             [&](const cache::CacheStore::WalkEntry& e) {
               if (victim.empty()) victim = e.path;
             });
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);

  const analysis::Sweep warm = corpus_sweep(cache::CacheMode::ReadWrite, dir);
  EXPECT_EQ(warm.samples, cold.samples);  // recomputed, not wrong
  EXPECT_GT(warm.cache.miss_cells, 0u);   // the vandalized record
  EXPECT_GT(warm.cache.hit_cells, 0u);    // everything else still hits
  EXPECT_GT(warm.cache.stored_records, 0u);  // and it was repaired

  // The repair round-trips: a third run is all hits again.
  const analysis::Sweep healed = corpus_sweep(cache::CacheMode::Read, dir);
  EXPECT_EQ(healed.samples, cold.samples);
  EXPECT_EQ(healed.cache.miss_cells, 0u);
}

TEST(CacheSweep, VerifyCatchesAndRepairsPoisonedRecords) {
  const std::string dir = temp_store("verify");
  const analysis::Sweep cold = corpus_sweep(cache::CacheMode::ReadWrite, dir);

  // Poison one record with a plausible-but-wrong result: valid checksum,
  // valid keys, corrupted metrics. Only a comparison against execution
  // can catch this.
  const cache::CacheStore store(dir);
  std::string path;
  cache::MethodRecord poisoned;
  store.walk(cache::record_fingerprint(),
             [&](const cache::CacheStore::WalkEntry& e) {
               if (path.empty() && e.current) {
                 path = e.path;
                 poisoned = e.record;
               }
             });
  ASSERT_FALSE(path.empty());
  ASSERT_FALSE(poisoned.cells.empty());
  poisoned.cells[0].metrics.ticks += 9999;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << cache::serialize_record(poisoned);
  }

  // The comparison javaflow_cache verify makes: the Read sweep serves
  // the poison, so it differs from the Off sweep in the poisoned cell
  // only (once per method sharing the record's body).
  const analysis::Sweep off = corpus_sweep(cache::CacheMode::Off, "");
  EXPECT_EQ(off.samples, cold.samples);
  const analysis::Sweep read = corpus_sweep(cache::CacheMode::Read, dir);
  ASSERT_EQ(read.samples.size(), off.samples.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < off.samples.size(); ++i) {
    if (read.samples[i] == off.samples[i]) continue;
    ++mismatches;
    EXPECT_EQ(read.samples[i].metrics.ticks,
              off.samples[i].metrics.ticks + 9999);
  }
  EXPECT_GT(mismatches, 0u);

  // Once the record is removed, Read equals Off again.
  const bytecode::Method* victim = nullptr;
  for (const bytecode::Method& m : corpus().program.methods) {
    if (m.name == poisoned.method_name) victim = &m;
  }
  ASSERT_NE(victim, nullptr);
  const cache::Hash128 key =
      cache::record_key(cache::hash_method_body(*victim),
                        cache::hash_pool(corpus().program.pool));
  ASSERT_EQ(store.path_for(key), path);
  ASSERT_TRUE(store.remove(key));
  EXPECT_EQ(corpus_sweep(cache::CacheMode::Read, dir).samples, off.samples);
}

// A record holding only some of a method's cells serves none of them:
// the method executes, and counts as misses, all of its cells.
TEST(CacheSweep, PartialRecordExecutesEveryCell) {
  analysis::SweepOptions options;
  options.stride = 61;
  options.cache = cache::CacheMode::ReadWrite;
  options.cache_dir = temp_store("partial");
  options.configs = {sim::config_by_name("Baseline")};
  ASSERT_GT(sweep_corpus(options).cache.stored_records, 0u);

  options.cache = cache::CacheMode::Read;
  options.configs.clear();  // all six: each record holds 2 of 12 cells
  const analysis::Sweep read = sweep_corpus(options);
  EXPECT_EQ(read.cache.hit_cells, 0u);
  EXPECT_EQ(read.cache.miss_cells + read.cache.dedup_cells,
            read.samples.size());
  EXPECT_EQ(read.samples, corpus_sweep(cache::CacheMode::Off, "").samples);
}

TEST(CacheSweep, DedupSharesResultsAcrossByteIdenticalMethods) {
  Program p;
  // Two byte-identical bodies under different names/benchmarks plus one
  // genuinely different method.
  p.methods.push_back(tiny_method(p, "bm.first()I", "bench_a", 7));
  p.methods.push_back(tiny_method(p, "other.clone()I", "bench_b", 7));
  p.methods.push_back(tiny_method(p, "bm.odd()I", "bench_a", 9));
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : p.methods) methods.push_back(&m);
  // Only the leader is hot, so the duplicate's hot flag must be
  // re-stamped, not copied.
  const std::vector<std::string> hot = {"bm.first()I"};

  const analysis::SweepOptions options;
  const analysis::Sweep deduped =
      analysis::run_sweep(methods, p.pool, hot, options);
  const std::size_t cells_per_method = deduped.samples.size() / 3;
  EXPECT_EQ(deduped.cache.dedup_cells, cells_per_method);
  EXPECT_EQ(deduped.profile.total().cells, deduped.samples.size());

  // Each method swept alone is its own leader; its cells must equal its
  // slice of the deduplicated sweep, name-dependent fields included.
  for (std::size_t mi = 0; mi < methods.size(); ++mi) {
    const analysis::Sweep alone =
        analysis::run_sweep({methods[mi]}, p.pool, hot, options);
    EXPECT_EQ(alone.cache.dedup_cells, 0u);
    const auto first =
        deduped.samples.begin() +
        static_cast<std::ptrdiff_t>(mi * cells_per_method);
    const std::vector<analysis::SweepSample> slice(
        first, first + static_cast<std::ptrdiff_t>(cells_per_method));
    EXPECT_EQ(slice, alone.samples) << methods[mi]->name;
  }
}

TEST(CacheSweep, ColdCountersAreThreadCountInvariant) {
  // Probe and store run in one task per distinct body, so no lane's
  // store can turn another item's probe into a hit: the counters must
  // not depend on how the items spread over lanes.
  const analysis::Sweep one = corpus_sweep(
      cache::CacheMode::ReadWrite, temp_store("cold1"), /*threads=*/1);
  const analysis::Sweep four = corpus_sweep(
      cache::CacheMode::ReadWrite, temp_store("cold4"), /*threads=*/4);
  EXPECT_EQ(one.samples, four.samples);
  EXPECT_EQ(one.cache.hit_cells, four.cache.hit_cells);
  EXPECT_EQ(one.cache.miss_cells, four.cache.miss_cells);
  EXPECT_EQ(one.cache.dedup_cells, four.cache.dedup_cells);
  EXPECT_EQ(one.cache.stored_records, four.cache.stored_records);
  EXPECT_EQ(one.cache.hit_cells, 0u);
  EXPECT_GT(one.cache.stored_records, 0u);
}

TEST(CacheSweep, MethodFilterSelectsMatchingSubset) {
  // The filter applies before the stride: this sweeps every 9th method
  // of the scimark subset, not the scimark members of every 9th method.
  const analysis::Sweep filtered = corpus_sweep(
      cache::CacheMode::Off, "", /*threads=*/1, /*stride=*/9, "scimark");
  ASSERT_GT(filtered.samples.size(), 0u);
  for (const analysis::SweepSample& s : filtered.samples) {
    EXPECT_NE(s.method.find("scimark"), std::string::npos) << s.method;
  }
  const analysis::Sweep none = corpus_sweep(
      cache::CacheMode::Off, "", /*threads=*/1, /*stride=*/1,
      "no.such.method.anywhere");
  EXPECT_EQ(none.samples.size(), 0u);
}

// A run is a function of its arguments: with the cache variables and
// JAVAFLOW_THREADS exported, a sweep that leaves the cache options at
// their defaults, and a serving run, behave as with the variables unset;
// a cache turned on without a directory throws.
TEST(CacheSweep, DefaultSweepAndServeReadNoEnvironment) {
  const char* const vars[] = {"JAVAFLOW_CACHE", "JAVAFLOW_CACHE_DIR",
                              "JAVAFLOW_THREADS"};
  const std::string dir = temp_store("env");
  analysis::SweepOptions options;
  options.stride = 61;
  serve::RequestStreamOptions stream;
  stream.num_requests = 16;
  const auto serve_digest = [&] {
    return serve::serve(corpus().program, {0, 1, 2, 3},
                        sim::config_by_name("Compact2"), stream)
        .digest();
  };

  for (const char* v : vars) ::unsetenv(v);
  const analysis::Sweep plain = sweep_corpus(options);
  const std::uint64_t plain_digest = serve_digest();
  ::setenv("JAVAFLOW_CACHE", "readwrite", 1);
  ::setenv("JAVAFLOW_CACHE_DIR", dir.c_str(), 1);
  ::setenv("JAVAFLOW_THREADS", "7", 1);
  const analysis::Sweep swept = sweep_corpus(options);
  const std::uint64_t swept_digest = serve_digest();
  analysis::SweepOptions no_dir = options;  // never falls back to the env
  no_dir.cache = cache::CacheMode::Read;
  EXPECT_THROW(sweep_corpus(no_dir), std::invalid_argument);
  for (const char* v : vars) ::unsetenv(v);

  EXPECT_EQ(swept.cache.mode, "off");
  EXPECT_EQ(swept.cache.stored_records, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir));
  EXPECT_EQ(swept.samples, plain.samples);
  EXPECT_EQ(swept_digest, plain_digest);
}

}  // namespace
}  // namespace javaflow
