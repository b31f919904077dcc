#include "core/fabric_manager.hpp"

#include <algorithm>

#include "fabric/dataflow_graph.hpp"

namespace javaflow {

FabricManager::FabricManager(sim::MachineConfig config)
    : config_(std::move(config)),
      engine_(config_),
      fabric_(config_.fabric_options()),
      occupied_(static_cast<std::size_t>(config_.capacity), false) {}

FabricManager::Canon& FabricManager::ensure_canon(
    const bytecode::Method& m, const bytecode::ConstantPool& pool) {
  Canon& c = canon_[&m];
  if (c.plan != nullptr && c.code_size == m.code.size() && c.name == m.name) {
    return c;
  }
  // First sighting (or a recycled allocation holding a different
  // method): build the graph and lower the fresh-fabric canonical layout
  // once.
  c.graph = fabric::build_dataflow_graph(m, pool);
  c.plan = std::make_unique<sim::ExecPlan>();
  plan_builder_.build_into(*c.plan, m, c.graph, nullptr, config_);
  c.code_size = m.code.size();
  c.name = m.name;
  return c;
}

std::optional<std::int32_t> FabricManager::canonical_span(
    const bytecode::Method& m, const bytecode::ConstantPool& pool) {
  const Canon& c = ensure_canon(m, pool);
  if (!c.plan->fits()) return std::nullopt;
  return c.plan->max_slot() + 1;
}

std::int32_t FabricManager::row_slots() const noexcept {
  return std::max(config_.idus_per_node, 1) * std::max(config_.width, 1);
}

std::int32_t FabricManager::first_free_row(std::int32_t span) const {
  for (std::int64_t base = 0; base + span <= config_.capacity;
       base += row_slots()) {
    const auto first = occupied_.begin() + base;
    if (std::find(first, first + span, true) == first + span) {
      return static_cast<std::int32_t>(base);
    }
  }
  return 0;
}

std::optional<FabricManager::MethodId> FabricManager::load(
    const bytecode::Method& m, const bytecode::ConstantPool& pool,
    std::int32_t first_slot) {
  fabric::Placement placement =
      fabric::load_method(fabric_, m, occupied_, first_slot);
  if (!placement.fits && first_slot != 0) {
    placement = fabric::load_method(fabric_, m, occupied_, /*first_slot=*/0);
  }
  if (!placement.fits) return std::nullopt;

  Resident r;
  r.id = next_id_++;
  r.method = &m;
  r.anchor_slot = placement.slot_of.empty() ? -1 : placement.slot_of[0];
  for (const std::int32_t slot : placement.slot_of) {
    occupied_[static_cast<std::size_t>(slot)] = true;
  }
  occupied_count_ += static_cast<std::int32_t>(placement.slot_of.size());

  // Plan selection: a placement that is the canonical layout shifted by
  // a whole number of fabric rows shares the canonical plan (row shifts
  // preserve the full timing model — docs/SERVING.md); anything
  // irregular gets its own lowering of this exact placement.
  const Canon& canon = ensure_canon(m, pool);
  bool share = canon.plan->fits() &&
               canon.plan->node_count() ==
                   static_cast<std::int32_t>(placement.slot_of.size()) &&
               !placement.slot_of.empty();
  std::int32_t delta = 0;
  if (share) {
    delta = placement.slot_of[0] - canon.plan->slot()[0];
    share = delta >= 0 && delta % row_slots() == 0;
  }
  if (share) {
    const std::int32_t* canon_slot = canon.plan->slot();
    for (std::size_t i = 0; i < placement.slot_of.size(); ++i) {
      if (placement.slot_of[i] !=
          canon_slot[i] + delta) {
        share = false;
        break;
      }
    }
  }
  if (share) {
    r.plan = canon.plan.get();
    r.phys_delta = delta / std::max(config_.idus_per_node, 1);
    r.plan_shared = true;
    ++plans_shared_;
  } else {
    r.dedicated_plan = std::make_unique<sim::ExecPlan>();
    plan_builder_.build_into(*r.dedicated_plan, m, canon.graph, &placement,
                             config_);
    r.plan = r.dedicated_plan.get();
    r.phys_delta = 0;
    ++plans_lowered_;
  }

  r.placement = std::move(placement);
  const MethodId id = r.id;
  residents_.emplace(id, std::move(r));
  return id;
}

bool FabricManager::unload(MethodId id) {
  auto it = residents_.find(id);
  if (it == residents_.end() || it->second.busy) return false;
  for (const std::int32_t slot : it->second.placement.slot_of) {
    occupied_[static_cast<std::size_t>(slot)] = false;
  }
  occupied_count_ -=
      static_cast<std::int32_t>(it->second.placement.slot_of.size());
  residents_.erase(it);
  return true;
}

std::optional<sim::RunMetrics> FabricManager::execute(
    MethodId id, sim::BranchPredictor::Scenario scenario) {
  auto it = residents_.find(id);
  if (it == residents_.end() || it->second.busy) {
    return std::nullopt;  // unknown method or Anchor busy (§4.3)
  }
  const Resident& r = it->second;
  sim::BranchPredictor predictor(scenario);
  // A shared canonical plan runs in its own frame, so only max_slot
  // needs rebasing to the actual placement (row-shift invariance covers
  // every other field).
  sim::RunMetrics metrics = engine_.run(*r.method, *r.plan, predictor);
  metrics.max_slot = r.placement.max_slot;
  return metrics;
}

const FabricManager::Resident* FabricManager::begin_execute(MethodId id) {
  auto it = residents_.find(id);
  if (it == residents_.end() || it->second.busy) return nullptr;
  it->second.busy = true;
  return &it->second;
}

void FabricManager::end_execute(MethodId id) {
  auto it = residents_.find(id);
  if (it != residents_.end()) it->second.busy = false;
}

std::optional<std::int64_t> FabricManager::quiesce_and_rebind(MethodId id) {
  auto it = residents_.find(id);
  if (it == residents_.end() || it->second.busy) return std::nullopt;
  const Resident& r = it->second;
  // Two full serial passes over the method's span: the QUIESE_TOKEN stops
  // execution, then the RESETADDRESS_TOKEN walks every node; storage
  // nodes re-fetch their Heap/Method-Area pointers through the ring.
  const std::int64_t span =
      r.placement.max_slot - r.anchor_slot + 1;
  std::int64_t storage_nodes = 0;
  for (std::size_t i = 0; i < r.method->code.size(); ++i) {
    const bytecode::Group g = r.method->code[i].group();
    if (g == bytecode::Group::MemRead || g == bytecode::Group::MemWrite ||
        g == bytecode::Group::MemConstant) {
      ++storage_nodes;
    }
  }
  // Pointer refreshes overlap the serial walk (each storage node issues
  // its ring request as the token passes); the total cost is the two
  // token circulations plus the last node's outstanding ring trip.
  const std::int64_t tail_trip =
      storage_nodes > 0 ? config_.ring.constant_read : 0;
  return 2 * span + tail_trip;
}

const FabricManager::Resident* FabricManager::find(MethodId id) const {
  auto it = residents_.find(id);
  return it == residents_.end() ? nullptr : &it->second;
}

}  // namespace javaflow
