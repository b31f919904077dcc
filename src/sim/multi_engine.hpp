// Multi-tenant execution core: one fabric, N resident methods executing
// concurrently (paper §6.2 "Management and Cleanup" and the Chapter 8
// superposition claim).
//
// Where sim::Engine simulates exactly one method per run, a MultiEngine
// admits any number of independently-anchored residencies into a single
// (tick, seq) event calendar. Every token bundle carries its owner's
// residency-table row in its 16-byte calendar slot, node lanes are
// offset per-residency into one shared struct-of-arrays image, and the
// physical fabric's transport is genuinely shared: serial-chain links,
// mesh links, and the four memory/GPP ring channels are occupancy-
// tracked, so co-resident flows contend for them (a token never waits
// on its own residency's traffic — single-method timing is exactly the
// uncontended case).
//
// Plans stay shareable between residencies of one method: a residency
// is (plan, phys_delta) where the delta is a whole-row physical shift
// (multiples of idus_per_node * mesh_width slots). Row shifts preserve
// serial hop counts and — because the serpentine layout mirrors x on
// odd rows for *both* endpoints of any route — Manhattan mesh
// distances, so one pre-lowered ExecPlan prices every aligned residency
// (docs/SERVING.md has the full argument). Unaligned placements get a
// dedicated plan with phys_delta 0.
//
// Lifecycle (docs/SERVING.md "Residency lifecycle"): admit -> run ->
// finish -> drain -> reclaim. Once a residency has finished and the
// last of its events has left the calendar, its table row, predictor
// and node-lane window are recycled for a later admission, so memory is
// bounded by the residencies live at once, not by how many were ever
// admitted. Only the per-admission outcome record stays.
//
// Determinism: admission order, start ticks, and the per-residency
// branch scenario fully determine the event sequence. The calendar is
// single-threaded and reads no environment; repeated runs with the same
// admissions are bit-identical.
//
// MultiEngine runs the shared instantiation of the one execution kernel
// (sim/kernel.hpp); sim::Engine runs its solo instantiation. Single-
// resident parity (tests/test_serve.cpp): one residency at phys_delta 0
// reproduces Engine::run's RunMetrics field for field, because an
// uncontended residency's transit is exactly the solo closed form.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "bytecode/method.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"

namespace javaflow::sim {

// Dense per-fabric residency index: the admission index, never reused
// (not FabricManager::MethodId — a method re-admitted after idling gets
// a fresh ResidentId per run). Outcomes are kept by it. The calendar's
// events name their owner by its recycled table row instead.
using ResidentId = std::int32_t;

// Per-residency result. `metrics` is bit-identical to a plain
// Engine::run of the same (method, plan, scenario) when the residency
// never contends (in particular whenever it runs alone).
struct ResidentOutcome {
  ResidentId resident = -1;
  RunMetrics metrics;
  std::int64_t admitted_tick = 0;
  std::int64_t completed_tick = -1;  // -1 if timed out / never finished
  // Ticks this residency's tokens spent queued behind *other*
  // residencies' traffic, by shared resource.
  std::int64_t serial_wait_ticks = 0;
  std::int64_t mesh_wait_ticks = 0;
  std::int64_t ring_wait_ticks = 0;
};

// Fabric-level aggregate over one MultiEngine lifetime.
struct MultiRunMetrics {
  std::vector<ResidentOutcome> residents;
  std::int64_t fabric_ticks = 0;  // tick of the last processed event
  // Tick spans with >=1 / >=2 instructions executing anywhere on the
  // fabric (the multi-tenant analogue of RunMetrics' Table 26 pair).
  std::int64_t ticks_exec_1plus = 0;
  std::int64_t ticks_exec_2plus = 0;
  // Tick spans with >=1 / >=2 *distinct residencies* executing at once
  // — ticks_res_2plus > 0 is the superposition witness (Chapter 8).
  std::int64_t ticks_res_1plus = 0;
  std::int64_t ticks_res_2plus = 0;
  // Cross-residency contention totals (sums of the per-resident waits).
  std::int64_t serial_wait_ticks = 0;
  std::int64_t mesh_wait_ticks = 0;
  std::int64_t ring_wait_ticks = 0;
};

struct MultiEngineOptions {
  // Absolute fabric-tick budget: the first event past it times every
  // live residency out (default: effectively unbounded — the serving
  // frontend bounds work by request count instead).
  std::int64_t max_ticks = std::int64_t{1} << 60;
};

class MultiEngine {
 public:
  // `until` sentinel for advance(): run until the calendar drains.
  static constexpr std::int64_t kNoLimit =
      std::numeric_limits<std::int64_t>::max() / 4;
  // Residencies live at once — admitted and not yet reclaimed — because
  // an event names its owner's table row in 16 bits (sim/kernel.hpp).
  // Not a lifetime cap: rows are recycled.
  static constexpr std::int32_t kMaxResidents = 65535;

  explicit MultiEngine(MachineConfig config, MultiEngineOptions options = {});
  MultiEngine(MultiEngine&&) noexcept;
  MultiEngine& operator=(MultiEngine&&) noexcept;
  ~MultiEngine();

  // Injects a residency's token bundle at max(start_tick, now()). The
  // plan must stay alive (read-only) for the engine's lifetime;
  // `phys_delta` rebases every physical-node index in the plan (0 for a
  // dedicated plan, rows*width/idus-aligned for a shared canonical
  // plan). Returns the new ResidentId, or -1 when the plan does not fit.
  // Throws std::length_error rather than refuse a fitting plan when
  // kMaxResidents residencies are live at once.
  ResidentId admit(const bytecode::Method& m, const ExecPlan& plan,
                   std::int32_t phys_delta,
                   BranchPredictor::Scenario scenario,
                   std::int64_t start_tick);

  // Processes events in (tick, seq) order while tick < until. Returns
  // as soon as one residency completes (drain remaining completions by
  // calling again), or nullopt once the clock reaches `until` / the
  // calendar drains. A residency still running when the calendar
  // drains can never receive another token; it is finalized as timed
  // out and returned like a completion. Resumable: admissions may be
  // interleaved between calls at the paused tick, and they order behind
  // every event already scheduled for the same tick.
  std::optional<ResidentId> advance(std::int64_t until = kNoLimit);

  bool idle() const noexcept;         // no undrained events
  std::int64_t now() const noexcept;  // current fabric tick
  std::size_t resident_count() const noexcept;  // total ever admitted
  std::size_t running_count() const noexcept;   // not yet finished
  // Node lanes allocated: the high-water mark of the live residencies'
  // lane windows, which recycling keeps independent of the admission
  // count.
  std::size_t lane_count() const noexcept;

  // Valid once the residency completed or timed out; null before.
  const ResidentOutcome* outcome(ResidentId r) const noexcept;

  // Finalizes any still-running residencies (neither completed nor
  // timed out) and returns the fabric aggregate, moving the outcome
  // history into it. Terminal.
  MultiRunMetrics finish();

  const MachineConfig& config() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace javaflow::sim
