// Run-snapshot files (.jfs): versioned, checksummed capture of one
// analysis sweep — per-config per-method ticks, critical-path
// category vectors, static lower bounds, and scheduler/stride metadata.
//
// A snapshot is the diffable unit of "where do the ticks go": commit a
// reference file, regenerate after a change, and `javaflow_explain
// --diff A.jfs B.jfs` reports exactly which cells drifted and which
// delay category absorbed the difference. The binary format follows
// cache/record.cpp: fixed-width little-endian integers, a magic +
// format-version header, the attribution fingerprint, and a trailing
// FNV-64 checksum (cache::checksum in cache/codec.hpp; .jfc records use
// a word digest instead) over everything before it — any flipped byte
// anywhere fails the load. Snapshots contain only
// deterministic simulation outputs (no wall-clock, host, or thread
// metadata), so serial and parallel sweeps of the same corpus produce
// byte-identical files (tests/test_critpath.cpp asserts this).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/critpath.hpp"

namespace javaflow::obs {

// Bump on any change to the serialized layout below.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

// One sweep cell: (method, config, scenario) -> ticks + attribution.
struct SnapshotCell {
  std::string method;
  std::int32_t config_index = -1;
  std::uint8_t scenario = 0;  // sim::BranchPredictor::Scenario value
  bool fits = false;
  bool completed = false;
  bool timed_out = false;
  bool exception = false;
  bool attributed = false;  // category_ticks hold a valid attribution
  std::int64_t ticks = 0;
  std::int64_t lower_bound = -1;  // static bound; -1 = none available
  std::array<std::int64_t, kNumPathCategories> category_ticks{};

  bool operator==(const SnapshotCell&) const = default;
};

struct Snapshot {
  std::uint32_t attribution_fingerprint = kAttributionFingerprint;
  std::string scheduler;
  std::int32_t stride = 1;
  std::vector<std::string> config_names;
  std::vector<std::string> config_texts;  // MachineConfig::canonical_text
  std::vector<SnapshotCell> cells;        // deterministic sweep order

  bool operator==(const Snapshot&) const = default;
};

// Scenario spelling shared with the CLI tools. obs cannot see
// sim::BranchPredictor (sim layers on top of obs), so the mapping lives
// here next to the byte it decodes.
std::string_view snapshot_scenario_name(std::uint8_t scenario) noexcept;

std::string serialize_snapshot(const Snapshot& snap);
// Structural + checksum validation; returns false (out untouched) on
// any anomaly. A fingerprint mismatch still loads — diff_snapshots
// reports it as incomparable so tools can explain *why* instead of
// failing opaquely.
bool deserialize_snapshot(std::string_view bytes, Snapshot& out);

// The trailing integrity checksum of a serialized snapshot — one 64-bit
// identity for a whole sweep's results, which `javaflow_explain
// --snapshot` prints and perfbench's sweep_cold compares.
// Returns 0 for anything shorter than a trailer.
std::uint64_t snapshot_digest(std::string_view serialized);

bool save_snapshot(const Snapshot& snap, const std::string& path);
bool load_snapshot(const std::string& path, Snapshot& out);

// ---- snapshot diff ----

struct SnapshotDiff {
  // False when the two files disagree on attribution fingerprint (the
  // category vectors mean different things — deltas would be lies).
  bool comparable = true;
  bool identical = false;
  // Metadata-level differences (scheduler, stride, config set). Any
  // entry here clears `identical`.
  std::vector<std::string> notes;

  struct CellDelta {
    std::string method;
    std::string config;
    std::uint8_t scenario = 0;
    bool only_in_a = false;
    bool only_in_b = false;
    bool flags_changed = false;
    std::int64_t ticks_a = 0;
    std::int64_t ticks_b = 0;
    std::int64_t lower_a = -1;
    std::int64_t lower_b = -1;
    // Per-category B-minus-A drift (zeros for one-sided cells).
    std::array<std::int64_t, kNumPathCategories> delta{};
  };
  // Sorted by |tick drift| descending, then (config, scenario, method)
  // — deterministic for identical inputs.
  std::vector<CellDelta> changed;

  std::size_t cells_a = 0;
  std::size_t cells_b = 0;
  std::size_t matched = 0;
  std::int64_t net_tick_drift = 0;  // sum of B-A ticks over matched cells
  std::array<std::int64_t, kNumPathCategories> net_category_drift{};
};

SnapshotDiff diff_snapshots(const Snapshot& a, const Snapshot& b);

// Deterministic renderings. Text caps the per-cell listing at
// `max_rows` (the totals always cover everything); JSON is complete.
void write_diff_text(std::ostream& os, const SnapshotDiff& d,
                     std::size_t max_rows = 20);
void write_diff_json(std::ostream& os, const SnapshotDiff& d);

}  // namespace javaflow::obs
