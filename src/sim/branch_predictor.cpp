#include "sim/branch_predictor.hpp"

namespace javaflow::sim {

std::vector<std::uint8_t> classify_branches(const bytecode::Method& m) {
  const auto n = static_cast<std::int32_t>(m.code.size());
  std::vector<std::uint8_t> kinds(
      static_cast<std::size_t>(n),
      static_cast<std::uint8_t>(BranchKind::Forward));
  for (std::int32_t i = 0; i < n; ++i) {
    const bytecode::Instruction& inst = m.code[static_cast<std::size_t>(i)];
    if (!inst.is_branch()) continue;
    if (inst.target < i) {
      kinds[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(BranchKind::Backward);
      continue;
    }
    // Forward jump: is it the exit test of a head-test loop? Look for a
    // backward branch below it whose target is at-or-above this site and
    // whose own position is before this site's target (i.e. the site
    // jumps out past the loop latch).
    for (std::int32_t j = i + 1; j < n; ++j) {
      const bytecode::Instruction& latch =
          m.code[static_cast<std::size_t>(j)];
      if (!latch.is_branch() || latch.target > i) continue;
      if (inst.target > j) {
        kinds[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(BranchKind::LoopExit);
      }
      break;  // nearest enclosing latch decides
    }
  }
  return kinds;
}

bool BranchPredictor::decide(std::int32_t site, BranchKind kind) {
  if (scenario_ == Scenario::Trace) {
    auto it = trace_.find(site);
    if (it != trace_.end() && !it->second.empty()) {
      const bool taken = it->second.front();
      it->second.pop_front();
      return taken;
    }
    // Trace exhausted: leave the loop so execution terminates.
    return kind == BranchKind::LoopExit;
  }
  std::int32_t& count = slot(counts_of(kind), site);
  return taken_at(kind, count++);
}

std::int32_t BranchPredictor::decide_switch(std::int32_t site,
                                            std::int32_t num_targets) {
  if (scenario_ == Scenario::Trace) {
    auto it = switch_trace_.find(site);
    if (it != switch_trace_.end() && !it->second.empty()) {
      const std::int32_t arm = it->second.front();
      it->second.pop_front();
      return arm < num_targets ? arm : num_targets - 1;
    }
    return num_targets - 1;  // exhausted: take the default arm
  }
  return switch_arm_at(slot(switch_counts_, site)++, num_targets);
}

}  // namespace javaflow::sim
