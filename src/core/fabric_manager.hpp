// Multi-method fabric management (paper §6.2 "Management and Cleanup",
// §4.3 atomic-execution limits, and the Chapter 8 superposition claim).
//
// The GPP "has to have some idea about how many methods are deployed and
// how they are being utilized": this manager owns one physical fabric's
// slot occupancy, loads methods greedily around existing residents
// (busy nodes pass the CMD_LOAD_INSTRUCTION stream along), enforces the
// one-thread-per-method rule through Anchor busy state, and frees slots
// again on CMD_UNLOAD_INSTRUCTION.
//
// Every resident carries a pre-lowered sim::ExecPlan. Methods placed at
// a row-aligned uniform shift of their canonical (fresh-fabric) layout
// share one canonical plan — the resident stores only its phys_delta —
// while irregular placements (packed around other residents) get a
// dedicated lowering. The serving frontend (serve::serve) leases
// residents via begin_execute()/end_execute() and feeds their
// (plan, phys_delta) pairs to a shared sim::MultiEngine; plain
// execute() keeps the one-shot single-method path on the manager's
// persistent engine (workspace reuse + the plan cache here).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "bytecode/method.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"

namespace javaflow {

class FabricManager {
 public:
  using MethodId = std::int32_t;

  struct Resident {
    MethodId id = -1;
    const bytecode::Method* method = nullptr;
    std::int32_t anchor_slot = -1;  // first slot of the method's region
    fabric::Placement placement;
    // Leased by begin_execute() until end_execute(): its one thread runs
    // (Anchor busy, §4.3).
    bool busy = false;
    // Pre-lowered plan: either the method's shared canonical plan (with
    // phys_delta rebasing its physical indices) or a dedicated lowering
    // of this exact placement (phys_delta 0).
    const sim::ExecPlan* plan = nullptr;
    std::int32_t phys_delta = 0;
    bool plan_shared = false;
    std::unique_ptr<sim::ExecPlan> dedicated_plan;
  };

  explicit FabricManager(sim::MachineConfig config);

  // Loads a method around the existing residents, preferring `first_slot`
  // (falling back to a scan from 0 when the hint does not fit), and
  // lowers its plan from the method's dataflow graph. Returns nullopt if
  // it cannot be placed within the node budget.
  std::optional<MethodId> load(const bytecode::Method& m,
                               const bytecode::ConstantPool& pool,
                               std::int32_t first_slot = 0);

  // CMD_UNLOAD_INSTRUCTION: frees every slot the method held. Fails (and
  // changes nothing) while the method is executing.
  bool unload(MethodId id);

  // Executes a resident method under the atomic-execution rule: a busy
  // Anchor rejects re-entry (§4.3 — "each individual method may have
  // only one thread active at a time").
  std::optional<sim::RunMetrics> execute(
      MethodId id, sim::BranchPredictor::Scenario scenario);

  // Leases a resident for external execution (the serving frontend's
  // MultiEngine): marks the Anchor busy and hands back the resident, or
  // null when the method is unknown or already executing. The lease must
  // be returned with end_execute() before unload/execute can succeed.
  const Resident* begin_execute(MethodId id);
  void end_execute(MethodId id);

  // Garbage-collection support (§6.4): quiesce the method's execution
  // (QUIESE_TOKEN down its chain), then force every storage node to
  // re-resolve its Constant Pool pointers (RESETADDRESS_TOKEN). Returns
  // the serial cycles the two passes consume, or nullopt if the method
  // is unknown or currently executing.
  std::optional<std::int64_t> quiesce_and_rebind(MethodId id);

  // Slot span (max_slot + 1) of the method's canonical fresh-fabric
  // layout — what first_free_row() must find free — or nullopt when the
  // method cannot fit even on an empty fabric.
  std::optional<std::int32_t> canonical_span(const bytecode::Method& m,
                                             const bytecode::ConstantPool& pool);

  // First slot of the lowest row-aligned run of `span` free slots, or 0
  // when no row starts one. A row is idus_per_node × width slots, the
  // shift that lets a placement share its method's canonical plan, so
  // load(m, pool, first_free_row(span)) shares it whenever such a gap
  // exists (and falls back to the greedy scan from slot 0 otherwise).
  std::int32_t first_free_row(std::int32_t span) const;

  const Resident* find(MethodId id) const;
  std::size_t resident_count() const noexcept { return residents_.size(); }
  // Instruction Nodes currently holding instructions.
  std::int32_t occupied_slots() const noexcept { return occupied_count_; }
  std::int32_t capacity() const noexcept { return config_.capacity; }
  // Plan-cache telemetry: residents that shared a canonical plan vs.
  // placements that forced a dedicated lowering.
  std::int64_t plans_shared() const noexcept { return plans_shared_; }
  std::int64_t plans_lowered() const noexcept { return plans_lowered_; }

 private:
  // A method's dataflow graph and its canonical fresh-fabric lowering,
  // shared by every row-aligned residency; dedicated plans are lowered
  // from the same graph. Keyed by method identity (pointer + size +
  // name) and kept across unloads so a method cycled through the fabric
  // never rebuilds or re-lowers; like Resident's raw method pointer, the
  // key requires a loaded method to outlive the manager unchanged.
  struct Canon {
    std::size_t code_size = 0;
    std::string name;
    fabric::DataflowGraph graph;
    std::unique_ptr<sim::ExecPlan> plan;
  };

  Canon& ensure_canon(const bytecode::Method& m,
                      const bytecode::ConstantPool& pool);
  // Slots per fabric row: the unit of a plan-sharing shift.
  std::int32_t row_slots() const noexcept;

  sim::MachineConfig config_;
  sim::Engine engine_;
  fabric::Fabric fabric_;
  std::vector<bool> occupied_;
  std::int32_t occupied_count_ = 0;
  MethodId next_id_ = 1;
  std::map<MethodId, Resident> residents_;
  std::map<const bytecode::Method*, Canon> canon_;
  sim::ExecPlanBuilder plan_builder_;
  std::int64_t plans_shared_ = 0;
  std::int64_t plans_lowered_ = 0;
};

}  // namespace javaflow
