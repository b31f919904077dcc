// Method loading: the self-organizing, greedy placement of a method's
// instructions into the DataFlow Fabric (paper §6.2 "Loading a Method",
// Figure 20).
//
// Instructions stream down the serial chain as CMD_LOAD_INSTRUCTION
// messages; the first free, type-matching node accepts each one and
// forwards the rest. No central allocator exists — the placement below is
// exactly the greedy fixed point that process reaches.
#pragma once

#include <cstdint>
#include <vector>

#include "bytecode/method.hpp"
#include "fabric/fabric.hpp"

namespace javaflow::fabric {

struct Placement {
  bool fits = false;
  std::vector<std::int32_t> slot_of;  // linear address -> chain slot
  std::int32_t max_slot = -1;         // highest chain slot consumed
  // Serial cycles for the pipelined load stream: the Anchor injects one
  // instruction per serial clock and the last one must reach max_slot.
  std::int64_t load_cycles = 0;

  // Table 19's metric: nodes traversed per instruction.
  double nodes_per_instruction(std::size_t insts) const {
    return insts == 0 ? 0.0
                      : static_cast<double>(max_slot + 1) /
                            static_cast<double>(insts);
  }

  // Read-only introspection for analysis passes: the chain slot assigned
  // to `linear` (-1 when unassigned or out of range — never throws, so
  // lint rules can report instead of crash).
  std::int32_t slot(std::int32_t linear) const noexcept {
    if (linear < 0 ||
        static_cast<std::size_t>(linear) >= slot_of.size()) {
      return -1;
    }
    return slot_of[static_cast<std::size_t>(linear)];
  }
};

// Greedy load starting at chain slot `first_slot` (the slot after the
// method's Anchor Node).
Placement load_method(const Fabric& fabric, const bytecode::Method& m,
                      std::int32_t first_slot = 0);

// Greedy load that also skips slots already holding other methods'
// instructions — the multi-method residency case (§6.2 "Management and
// Cleanup": busy nodes simply pass the load stream along). `occupied`
// may be shorter than the fabric; missing entries count as free.
Placement load_method(const Fabric& fabric, const bytecode::Method& m,
                      const std::vector<bool>& occupied,
                      std::int32_t first_slot);

}  // namespace javaflow::fabric
