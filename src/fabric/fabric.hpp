// The DataFlow Fabric: a 2-D grid of Instruction Nodes threaded by the
// serial chain (paper §4.1-4.2, Figure 12).
//
// A fabric is characterized by its layout (Table 15 configurations):
//   Compact       — homogeneous nodes, every chain slot accepts any
//                   instruction
//   Sparse        — every other chain slot is a blank (router-only) node
//   Heterogeneous — repeating 10-slot row pattern of 6 arithmetic,
//                   1 floating-point, 2 storage, 1 control node, sized
//                   from the static mix analysis (Figure 26 / Table 6)
//   Collapsed     — the Baseline measurement fiction: same nodes, but all
//                   serial transfers are free and all mesh distances 1
#pragma once

#include <cstdint>
#include <optional>

#include "bytecode/opcode.hpp"

namespace javaflow::fabric {

enum class LayoutKind : std::uint8_t {
  Collapsed,
  Compact,
  Sparse,
  Heterogeneous,
};

std::string_view layout_name(LayoutKind k) noexcept;

struct FabricOptions {
  LayoutKind layout = LayoutKind::Compact;
  std::int32_t capacity = 10000;  // Instruction Node budget (§2.1:
                                  // "1,000 to 10,000 cores")
};

class Fabric {
 public:
  explicit Fabric(FabricOptions options) : options_(options) {}

  const FabricOptions& options() const noexcept { return options_; }
  bool collapsed() const noexcept {
    return options_.layout == LayoutKind::Collapsed;
  }

  // What a chain slot can host. Blank slots host nothing (Sparse layout).
  // Homogeneous slots (Compact/Collapsed) host anything.
  bool slot_accepts(std::int32_t slot, bytecode::NodeType type) const;
  bytecode::NodeType slot_type(std::int32_t slot) const;
  // Slots after which the slot types repeat: a placement shifted by a
  // multiple of it is valid wherever its slots are free.
  std::int32_t pattern_period() const noexcept;

 private:
  FabricOptions options_;
};

}  // namespace javaflow::fabric
