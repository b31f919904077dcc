#include "fabric/fabric.hpp"

namespace javaflow::fabric {

using bytecode::NodeType;

std::string_view layout_name(LayoutKind k) noexcept {
  switch (k) {
    case LayoutKind::Collapsed: return "Collapsed";
    case LayoutKind::Compact: return "Compact";
    case LayoutKind::Sparse: return "Sparse";
    case LayoutKind::Heterogeneous: return "Heterogeneous";
  }
  return "?";
}

NodeType Fabric::slot_type(std::int32_t slot) const {
  switch (options_.layout) {
    case LayoutKind::Collapsed:
    case LayoutKind::Compact:
      return NodeType::Arithmetic;  // homogeneous: accepts everything
    case LayoutKind::Sparse:
      return (slot % 2) != 0 ? NodeType::Blank : NodeType::Arithmetic;
    case LayoutKind::Heterogeneous: {
      // Figure 26 row pattern: 6 arithmetic, 1 floating point, 2 storage,
      // 1 control per 10-slot row, in contiguous segments as the figure
      // draws them (segment grouping is what pushes the measured
      // instructions-to-nodes ratio toward the paper's ~3.1, Table 20).
      static constexpr NodeType kPattern[10] = {
          NodeType::Arithmetic, NodeType::Arithmetic,
          NodeType::Arithmetic, NodeType::Arithmetic,
          NodeType::Arithmetic, NodeType::Arithmetic,
          NodeType::FloatingPoint,
          NodeType::Storage,     NodeType::Storage,
          NodeType::Control,
      };
      return kPattern[slot % 10];
    }
  }
  return NodeType::Arithmetic;
}

bool Fabric::slot_accepts(std::int32_t slot, NodeType type) const {
  switch (options_.layout) {
    case LayoutKind::Collapsed:
    case LayoutKind::Compact:
      return true;  // homogeneous nodes process all instructions
    case LayoutKind::Sparse:
      return (slot % 2) == 0;  // blanks are router-only
    case LayoutKind::Heterogeneous:
      return slot_type(slot) == type;
  }
  return true;
}

}  // namespace javaflow::fabric
