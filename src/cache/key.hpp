// Cache-key derivation for the content-addressed sweep result cache
// (docs/PERF.md "Result cache").
//
// A sweep cell — one (method, MachineConfig, scenario) simulation — is
// keyed by a 128-bit digest of everything its RunMetrics can depend on:
//
//   * the canonical method body bytes (code, switch tables, signature —
//     NOT the name or benchmark tag, which are reporting metadata);
//   * a digest of the whole ConstantPool (graph construction and ring
//     traffic read pool entries, including interpreter-resolved slots);
//   * the canonical MachineConfig text (sim::MachineConfig::canonical_text);
//   * the branch scenario and the event scheduler (always the calendar);
//   * the engine-options fields that alter results (tick budget,
//     exception injection);
//   * kEngineFingerprint, bumped by hand whenever simulation semantics
//     change (event ordering, Table 17 costs, network timing, …).
//
// Records are grouped one file per method: the file is addressed by
// (method body, pool) only, so every config/scenario variant of a
// method shares one record and a warm full-corpus sweep pays one
// file read per method instead of twelve.
#pragma once

#include <cstdint>
#include <span>

#include "bytecode/method.hpp"
#include "cache/hash.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"

namespace javaflow::cache {

// Bump whenever a change anywhere in the simulator can alter RunMetrics
// for an unchanged (method, pool, config, scenario) tuple: event
// semantics of the execution kernel — solo or shared (sim/kernel.hpp:
// serving's contention model lives in the same handlers as the sweep's
// runs) — Table 17 execution costs, network transit rules, placement
// policy, dataflow-graph construction. Every record
// carries the fingerprint it was produced under; a mismatch is a miss
// (and `javaflow_cache prune` deletes the stale files).
inline constexpr std::uint32_t kEngineFingerprint = 1;

// The fingerprint stamped on (and demanded of) record files: an FNV-1a
// fold over the version constants whose semantics cached RunMetrics
// depend on — plan lowering (cached metrics flow through the engine's
// plans) and the execution kernel. Records hold RunMetrics only: an
// analysis sweep reads no record, so no analyzer or attribution version
// belongs here. Bumping either constant invalidates every existing
// record.
inline constexpr std::uint32_t record_fingerprint() noexcept {
  std::uint32_t h = 2166136261u;  // FNV-1a 32 offset basis
  for (const std::uint32_t v : {sim::kPlanFingerprint, kEngineFingerprint}) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 16777619u;
    }
  }
  return h;
}

// Digest of the simulation-relevant method body. Two methods with equal
// body digests produce identical RunMetrics in every cell (the engine
// never reads the name), which is what corpus dedup relies on.
Hash128 hash_method_body(const bytecode::Method& m);

// Digest of the full constant pool (all entries, all payload fields).
// Conservative: any pool change invalidates every method's records.
Hash128 hash_pool(const bytecode::ConstantPool& pool);

// Digest of a machine configuration via its canonical text.
Hash128 hash_config(const sim::MachineConfig& config);

// Digest of the EngineOptions fields that can change results, plus the
// resolved scheduler name, which keeps the key bytes of records written
// while a second scheduler existed.
Hash128 hash_engine_options(const sim::EngineOptions& options,
                            sim::SchedulerKind resolved_scheduler);

// Address of a method's record file: (body, pool) only — see above.
Hash128 record_key(const Hash128& method_body, const Hash128& pool);

// Full per-cell key: everything listed in the header comment.
Hash128 cell_key(const Hash128& method_body, const Hash128& pool,
                 const Hash128& config, const Hash128& engine_options,
                 sim::BranchPredictor::Scenario scenario,
                 std::uint32_t engine_fingerprint = kEngineFingerprint);

// Every cell key of one method in a sweep's config-major cell order:
// out[ci * scenarios.size() + si] = cell_key(method_body, pool,
// configs[ci], engine_options, scenarios[si]). The (fingerprint, body,
// pool) prefix is hashed once and each config once, so a method's keys
// cost about a third of that many cell_key calls. `out` must hold
// configs.size() * scenarios.size() keys.
void cell_keys(const Hash128& method_body, const Hash128& pool,
               std::span<const Hash128> configs,
               const Hash128& engine_options,
               std::span<const sim::BranchPredictor::Scenario> scenarios,
               std::span<Hash128> out);

}  // namespace javaflow::cache
