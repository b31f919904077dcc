// Versioned binary record format for the sweep result cache
// (docs/PERF.md "Result cache").
//
// One record file holds every cached cell of one method (same body, same
// pool): each cell entry carries its full 128-bit cell key plus the
// simulation outputs. The file is self-validating — magic, format
// version, engine fingerprint, and a trailing 8-byte digest over
// everything before it (the first lane of cache::WordHasher, one word
// per step) — and the deserializer treats ANY anomaly (truncation, zero
// length, bad magic, wrong format version, stale fingerprint, trailer
// or bounds failure) as "no record": a cache read can degrade to a miss
// but never to a crash or a wrong result.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hash.hpp"
#include "sim/engine.hpp"

namespace javaflow::cache {

// Current on-disk format version. Bump on any layout or trailer change;
// old files then deserialize to "no record" and are rewritten on the next
// store (version 1 files carry an FNV-1a 64 trailer).
inline constexpr std::uint32_t kRecordFormatVersion = 2;

// One cached sweep cell: the full cell key (cache/key.hpp) and every
// output `run_sweep` would otherwise have to recompute for the sample.
struct CellRecord {
  Hash128 key;
  std::int32_t static_insts = 0;
  std::int32_t back_jumps = 0;
  sim::RunMetrics metrics;

  bool operator==(const CellRecord&) const = default;
};

struct MethodRecord {
  std::uint32_t fingerprint = 0;  // cache/key.hpp record_fingerprint()
  std::string method_name;        // informational (CLI stats/invalidate)
  std::vector<CellRecord> cells;

  bool operator==(const MethodRecord&) const = default;
};

// Serializes to the canonical byte layout. Byte-stable: equal records
// always produce identical bytes (asserted by tests/test_cache.cpp).
std::string serialize_record(const MethodRecord& record);

// Parses `bytes`; returns false (leaving `out` unspecified) on any
// anomaly, including a fingerprint different from `expected_fingerprint`.
bool deserialize_record(std::string_view bytes,
                        std::uint32_t expected_fingerprint,
                        MethodRecord& out);

// Like above but ignores the fingerprint check (maintenance walks that
// want to *count* stale records). Still validates everything else.
bool deserialize_record_any_fingerprint(std::string_view bytes,
                                        MethodRecord& out);

// The format version a record's header names, or nullopt when `bytes`
// does not start with the record magic and a version. It is read before
// the trailer, whose algorithm the version selects, so a record of
// another format is told apart from a damaged one.
std::optional<std::uint32_t> record_format_version(std::string_view bytes);

}  // namespace javaflow::cache
