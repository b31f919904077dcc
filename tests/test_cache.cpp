// Tests for the persistent sweep result cache (src/cache/): the word
// hasher's pinned output and guarantees, key derivation stability,
// record-format robustness (truncation, bit rot, stale fingerprints and
// the previous format all degrade to a miss), store round trips, and the
// run_sweep integration — warm hits, the off-vs-read comparison,
// corpus dedup, and the method filter must all reproduce cold results
// bit-for-bit, and no environment variable may turn the cache on.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "cache/codec.hpp"
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

// ---- word hashing ----

// `n` bytes of a fixed pattern.
std::string patterned_buffer(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return out;
}

// The word digest's output is part of the cache format (every body and
// pool digest and every record trailer): pinned on the empty input,
// every length 1-17 of one string (short of, at and across the word
// boundaries) and a buffer of over 1 KiB. CacheKey.CorpusDigestsArePinned
// pins a corpus method's body digest.
TEST(CacheWordHash, KnownAnswers) {
  EXPECT_EQ(cache::to_hex(cache::hash_words("")),
            "159a51fb5053de521913f5db3f3db057");
  const std::string text = "JavaFlow dataflow machine";
  const char* const prefixes[] = {
      "cf622ec7c2ee41b6c6c0d5724adaaf62",
      "60956a766d03999d558cff1a1ab16f87",
      "aeba9b1153c526305a90e3ae052baaac",
      "7ebff4392b13d0be78b4b59d3bed5b6c",
      "0a11d0dfa35722d0b7fe74d1a67bfaa3",
      "152bfd82f0bbf52d3e7fcc84da3bb59c",
      "5163f60f6f36ab832cdac3433554ca26",
      "b7c83e41a1af3ab947c3a75d3d4ce6f6",
      "0b43cda18416ea1cadce1579ac0e71b4",
      "318fe707795e3512bc6128cd026509bb",
      "1031d870b638873d3a52e871007e36a4",
      "25b7fb8ab6488f97648063f5af1aa2f8",
      "f3723a8b04107cb7478cc6bcb0a4a365",
      "717406f525cdefc2b7c4fcca19b1c60c",
      "5fef7ac7fe9083a5a61b7d7b0cc2ee6e",
      "5dd772ab94e52388c18ac7157da76171",
      "f4ef9228314baefe12746cb5a4edf6b6",
  };
  for (std::size_t n = 1; n <= 17; ++n) {
    EXPECT_EQ(cache::to_hex(cache::hash_words(text.substr(0, n))),
              prefixes[n - 1])
        << "length " << n;
  }
  EXPECT_EQ(cache::to_hex(cache::hash_words(patterned_buffer(1027))),
            "b0a3377a2c308969ac83ea6d6361e3f6");
}

// Zero padding alone would map prefixes 1-8 of a zero buffer to one
// word; the folded-in length keeps every prefix apart.
TEST(CacheWordHash, EveryPrefixLengthIsDistinct) {
  for (const std::string& buffer :
       {std::string(64, '\0'), patterned_buffer(64)}) {
    std::set<cache::Hash128> digests;
    std::set<std::uint64_t> trailers;
    for (std::size_t n = 0; n <= buffer.size(); ++n) {
      const cache::Hash128 h = cache::hash_words(buffer.substr(0, n));
      digests.insert(h);
      trailers.insert(h.hi);
    }
    EXPECT_EQ(digests.size(), buffer.size() + 1);
    EXPECT_EQ(trailers.size(), buffer.size() + 1);
  }
}

TEST(CacheWordHash, StringsAreLengthPrefixed) {
  cache::WordHasher h1, h2;
  h1.str("ab");
  h1.str("c");
  h2.str("a");
  h2.str("bc");
  EXPECT_NE(h1.digest(), h2.digest());
}

// Each step is a bijection of each lane for a fixed word, so a single
// changed bit always reaches the trailer lane, as FNV-1a's byte step
// guarantees per byte.
TEST(CacheWordHash, EverySingleBitFlipMovesBothLanes) {
  const std::string buffer = patterned_buffer(1024);
  const cache::Hash128 base = cache::hash_words(buffer);
  std::size_t same_hi = 0;
  std::size_t same_lo = 0;
  for (std::size_t bit = 0; bit < 8 * buffer.size(); ++bit) {
    std::string flipped = buffer;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const cache::Hash128 h = cache::hash_words(flipped);
    same_hi += h.hi == base.hi;
    same_lo += h.lo == base.lo;
  }
  EXPECT_EQ(same_hi, 0u);
  EXPECT_EQ(same_lo, 0u);
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

// cell_keys hashes the shared prefix once; every key it finishes must be
// the one cell_key derives from scratch, in config-major cell order.
TEST(CacheKey, CellKeysMatchCellKey) {
  Program p;
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  std::vector<cache::Hash128> config_hash;
  for (const sim::MachineConfig& cfg : configs) {
    config_hash.push_back(cache::hash_config(cfg));
  }
  const cache::Hash128 pool = cache::hash_pool(p.pool);
  const cache::Hash128 engine = cache::hash_engine_options(
      sim::EngineOptions{}, sim::resolve_scheduler(sim::SchedulerKind::Auto));
  const auto& scenarios = analysis::SweepOptions::scenarios;
  for (const std::int32_t constant : {0, 7, -3, 1 << 20}) {
    const cache::Hash128 body = cache::hash_method_body(
        tiny_method(p, "bm.k()I", "bm", constant));
    std::vector<cache::Hash128> keys(configs.size() * scenarios.size());
    cache::cell_keys(body, pool, config_hash, engine, scenarios, keys);
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (std::size_t si = 0; si < scenarios.size(); ++si) {
        EXPECT_EQ(keys[ci * scenarios.size() + si],
                  cache::cell_key(body, pool, config_hash[ci], engine,
                                  scenarios[si]))
            << "constant " << constant << ", " << configs[ci].name
            << ", scenario " << si;
      }
    }
  }
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

  // A lane parses record after record into one `out`: what a longer
  // record (more cells, a longer name) left there must not survive.
  cache::MethodRecord longer = sample_record();
  longer.method_name = "bm.aMuchLongerMethodName(IJDLjava/lang/String;)V";
  longer.cells.insert(longer.cells.end(), r.cells.begin(), r.cells.end());
  ASSERT_TRUE(cache::deserialize_record(cache::serialize_record(longer),
                                        cache::kEngineFingerprint, back));
  ASSERT_EQ(back, longer);
  ASSERT_TRUE(
      cache::deserialize_record(bytes, cache::kEngineFingerprint, back));
  EXPECT_EQ(back, r);
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

  // The same prefixes as record files cut short on disk: every one is a
  // store miss.
  const cache::CacheStore store(temp_store("truncation"));
  const cache::Hash128 key = cache::hash_bytes("truncated");
  ASSERT_TRUE(store.save(key, sample_record()));
  const std::string path = store.path_for(key);
  ASSERT_EQ(std::filesystem::file_size(path), bytes.size());
  for (std::size_t n = bytes.size(); n-- > 0;) {
    std::filesystem::resize_file(path, n);
    EXPECT_FALSE(store.load(key, cache::kEngineFingerprint, out))
        << "a " << n << "-byte file loaded";
  }
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

// A record in the previous format (version 1, FNV-1a 64 trailer) reads
// as a miss. Its header names the other version before any trailer is
// checked, so the walk counts it stale, not corrupt, and prune removes
// it.
TEST(CacheRecord, PreviousFormatIsAMissAndPruned) {
  std::string bytes = cache::serialize_record(sample_record());
  bytes.resize(bytes.size() - 8);
  std::string version;
  cache::Writer(version).u32(1);
  bytes.replace(4, 4, version);  // after the 4-byte magic
  std::string fnv_trailer;
  cache::Writer(fnv_trailer).u64(cache::checksum(bytes));
  bytes += fnv_trailer;
  cache::MethodRecord out;
  EXPECT_FALSE(
      cache::deserialize_record(bytes, cache::kEngineFingerprint, out));
  EXPECT_FALSE(cache::deserialize_record_any_fingerprint(bytes, out));

  const cache::CacheStore store(temp_store("format1"));
  const cache::Hash128 key = cache::hash_bytes("format1");
  const std::string path = store.path_for(key);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_FALSE(store.load(key, cache::kEngineFingerprint, out));
  EXPECT_EQ(cache::record_format_version(bytes),
            std::optional<std::uint32_t>(1));
  const cache::CacheStore::Stats s = store.stats(cache::kEngineFingerprint);
  EXPECT_EQ(s.files, 1u);
  EXPECT_EQ(s.stale_files, 1u);
  EXPECT_EQ(s.corrupt_files, 0u);
  EXPECT_EQ(store.prune(cache::kEngineFingerprint), 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---- store ----

TEST(CacheStore, SaveLoadRemoveRoundTrip) {
  const cache::CacheStore store(temp_store("roundtrip"));
  const cache::Hash128 key = cache::hash_bytes("key");
  const cache::MethodRecord r = sample_record();

  cache::MethodRecord out;
  EXPECT_FALSE(store.load(key, cache::kEngineFingerprint, out));
  // A temp file that a killed writer with this process id and thread
  // left behind does not block the save, and the save consumes it.
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, ".tmp.%ld.%zx",
                static_cast<long>(::getpid()),
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::string stale_tmp = store.path_for(key) + suffix;
  std::filesystem::create_directories(
      std::filesystem::path(stale_tmp).parent_path());
  std::ofstream(stale_tmp) << "torn";
  ASSERT_TRUE(store.save(key, r));
  EXPECT_FALSE(std::filesystem::exists(stale_tmp));
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

// Only a regular file of at most kMaxRecordBytes is read: a directory at
// a record's path, a FIFO, and a well-formed record one byte over the
// ceiling are all misses, and the walk reports the oversized file
// corrupt, so prune removes it.
TEST(CacheStore, LoadRejectsNonRecordFiles) {
  const cache::CacheStore store(temp_store("non_records"));
  const std::size_t header = cache::serialize_record({}).size();

  // The largest record the ceiling admits loads.
  cache::MethodRecord largest;
  largest.fingerprint = cache::kEngineFingerprint;
  largest.method_name.assign(cache::kMaxRecordBytes - header, 'm');
  ASSERT_EQ(cache::serialize_record(largest).size(), cache::kMaxRecordBytes);
  const cache::Hash128 largest_key = cache::hash_bytes("largest");
  ASSERT_TRUE(store.save(largest_key, largest));
  cache::MethodRecord out;
  ASSERT_TRUE(store.load(largest_key, cache::kEngineFingerprint, out));
  EXPECT_EQ(out, largest);

  cache::MethodRecord oversized = largest;
  oversized.method_name.push_back('m');
  const cache::Hash128 oversized_key = cache::hash_bytes("oversized");
  ASSERT_TRUE(store.save(oversized_key, oversized));
  EXPECT_FALSE(store.load(oversized_key, cache::kEngineFingerprint, out));

  const cache::Hash128 dir_key = cache::hash_bytes("directory");
  std::filesystem::create_directories(store.path_for(dir_key));
  EXPECT_FALSE(store.load(dir_key, cache::kEngineFingerprint, out));

  const cache::Hash128 fifo_key = cache::hash_bytes("fifo");
  ASSERT_TRUE(store.save(fifo_key, sample_record()));
  std::filesystem::remove(store.path_for(fifo_key));
  ASSERT_EQ(::mkfifo(store.path_for(fifo_key).c_str(), 0600), 0);
  EXPECT_FALSE(store.load(fifo_key, cache::kEngineFingerprint, out));

  // The walk sees two regular record files: the largest record and the
  // oversized one, which it counts as corrupt without reading it.
  const cache::CacheStore::Stats s = store.stats(cache::kEngineFingerprint);
  EXPECT_EQ(s.files, 2u);
  EXPECT_EQ(s.corrupt_files, 1u);
  EXPECT_EQ(s.bytes, 2 * cache::kMaxRecordBytes + 1);
  EXPECT_EQ(store.prune(cache::kEngineFingerprint), 1u);
  EXPECT_FALSE(std::filesystem::exists(store.path_for(oversized_key)));
  EXPECT_TRUE(store.load(largest_key, cache::kEngineFingerprint, out));
}

// ---- run_sweep integration ----

const workloads::Corpus& corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

bool same_body(const bytecode::Method& a, const bytecode::Method& b) {
  const auto same_instruction = [](const bytecode::Instruction& x,
                                   const bytecode::Instruction& y) {
    return x.op == y.op && x.operand == y.operand &&
           x.operand2 == y.operand2 && x.target == y.target &&
           x.pop == y.pop && x.push == y.push;
  };
  const auto same_switch = [](const bytecode::SwitchTable& x,
                              const bytecode::SwitchTable& y) {
    return x.keys == y.keys && x.targets == y.targets &&
           x.default_target == y.default_target;
  };
  return a.max_locals == b.max_locals && a.max_stack == b.max_stack &&
         a.num_args == b.num_args && a.return_type == b.return_type &&
         a.is_static == b.is_static && a.arg_types == b.arg_types &&
         std::equal(a.code.begin(), a.code.end(), b.code.begin(),
                    b.code.end(), same_instruction) &&
         std::equal(a.switches.begin(), a.switches.end(),
                    b.switches.begin(), b.switches.end(), same_switch);
}

// Corpus dedup is exact: two corpus methods share a body digest if and
// only if their bodies are equal field by field.
TEST(CacheKey, CorpusBodyDigestsAreEqualExactlyForEqualBodies) {
  std::map<cache::Hash128, const bytecode::Method*> first_with;
  for (const bytecode::Method& m : corpus().program.methods) {
    const auto [it, fresh] =
        first_with.try_emplace(cache::hash_method_body(m), &m);
    EXPECT_TRUE(fresh || same_body(*it->second, m))
        << it->second->name << " and " << m.name << " share a digest";
  }
  EXPECT_EQ(first_with.size(), 1582u);
  std::vector<const bytecode::Method*> leaders;
  for (const auto& [digest, m] : first_with) leaders.push_back(m);
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    for (std::size_t j = i + 1; j < leaders.size(); ++j) {
      equal_pairs += same_body(*leaders[i], *leaders[j]);
    }
  }
  EXPECT_EQ(equal_pairs, 0u);
}

// A corpus method's body digest and the corpus pool digest, pinned: the
// two name every record file of a full sweep.
TEST(CacheKey, CorpusDigestsArePinned) {
  const bytecode::Method& m = corpus().program.methods[0];
  ASSERT_EQ(m.name, "spec.benchmarks.compress.Compressor.init(A)V");
  EXPECT_EQ(cache::to_hex(cache::hash_method_body(m)),
            "58090add9c067db73ba0954cada888b7");
  EXPECT_EQ(cache::to_hex(cache::hash_pool(corpus().program.pool)),
            "b8b787c4a8b291f16978caddaf218b1d");
}

// Sweeps the corpus methods whose qualified name contains `filter`
// ("" = all), as the bench harnesses do with JAVAFLOW_BENCH_FILTER.
analysis::Sweep sweep_corpus(const analysis::SweepOptions& options,
                             const std::string& filter = "") {
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus().program.methods) {
    if (m.name.find(filter) != std::string::npos) methods.push_back(&m);
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
  options.cache = mode;
  options.cache_dir = dir;
  return sweep_corpus(options, filter);
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
  // The sweep strides over the filtered list: this sweeps every 9th
  // method of the scimark subset, not the scimark members of every 9th
  // method.
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
