// Persistent filesystem store for the sweep result cache
// (docs/PERF.md "Result cache").
//
// Layout: <dir>/v1/<first-2-hex>/<32-hex>.jfc — one record file per
// (method body, pool) digest, sharded over 256 subdirectories. A load
// opens the record file and reads it with a single read(2). A save
// writes a temp file named after the process and thread, so no two live
// writers ever share one, and renames it over the record, so readers
// never observe a half-written record; a torn or corrupted file
// deserializes to "no record" (a miss).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "cache/record.hpp"

namespace javaflow::cache {

// How a sweep uses the cache (SweepOptions::cache):
//   Off        — no cache at all (the default).
//   Read       — consume hits, never write.
//   ReadWrite  — consume hits, store misses.
enum class CacheMode : std::uint8_t { Off, Read, ReadWrite };

std::string_view cache_mode_name(CacheMode m) noexcept;

// Parses "off" / "read" / "readwrite"; nullopt for anything else.
std::optional<CacheMode> cache_mode_from_name(std::string_view name) noexcept;

// Default directory for the bench harnesses and javaflow_cache (a sweep
// uses its cache_dir as given): `requested` if non-empty, else
// JAVAFLOW_CACHE_DIR, else $XDG_CACHE_HOME/javaflow, else
// $HOME/.cache/javaflow, else ./.javaflow-cache as a last resort.
std::string resolve_cache_dir(const std::string& requested);

// The largest file a load or walk reads: about 850 times a full-corpus
// record. A bigger file, or anything but a regular file, is not a
// record: a load misses and a walk reports it corrupt, unread.
inline constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 20;

// Loads may run concurrently from any number of threads, and so may
// saves of different keys.
class CacheStore {
 public:
  explicit CacheStore(std::string dir) : root_(std::move(dir) + "/v1/") {}

  // Path of the record file for `key`.
  std::string path_for(const Hash128& key) const;

  // Loads and validates the record for `key`. False on a missing file,
  // a failed or short read, a file that is not a regular file of at
  // most kMaxRecordBytes, or any record anomaly (including a
  // fingerprint other than `fingerprint`) — all of which are plain
  // misses, never exceptions.
  bool load(const Hash128& key, std::uint32_t fingerprint,
            MethodRecord& out) const;

  // Atomically writes the record for `key` (temp file + rename),
  // creating directories as needed. False on any filesystem error —
  // a cache store failure must never fail the sweep.
  bool save(const Hash128& key, const MethodRecord& record) const;

  // Removes the record for `key` if present.
  bool remove(const Hash128& key) const;

  // ---- maintenance walks (tools/javaflow_cache) ----

  struct WalkEntry {
    std::string path;
    std::uintmax_t bytes = 0;
    bool valid = false;    // parsed and checksummed OK
    bool current = false;  // valid && fingerprint == the walk's
    MethodRecord record;   // populated when valid
  };

  // Visits every regular *.jfc file under the store in sorted path
  // order.
  void walk(std::uint32_t fingerprint,
            const std::function<void(const WalkEntry&)>& visit) const;

  struct Stats {
    std::uintmax_t files = 0;
    std::uintmax_t bytes = 0;
    std::uintmax_t cells = 0;        // across current records
    std::uintmax_t stale_files = 0;  // valid, wrong fingerprint
    std::uintmax_t corrupt_files = 0;
  };
  Stats stats(std::uint32_t fingerprint) const;

  // Deletes stale-fingerprint and corrupt files; returns removed count.
  std::uintmax_t prune(std::uint32_t fingerprint) const;

  // Deletes records whose stored method name contains `method_substr`
  // (empty = every record, plus corrupt files); returns removed count.
  std::uintmax_t invalidate(const std::string& method_substr) const;

 private:
  std::string root_;  // "<dir>/v1/", the prefix of every record path
};

}  // namespace javaflow::cache
