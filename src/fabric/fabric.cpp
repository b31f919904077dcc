#include "fabric/fabric.hpp"

#include <iterator>

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

namespace {

// Figure 26 row pattern: 6 arithmetic, 1 floating point, 2 storage, 1
// control per 10-slot row, in contiguous segments as the figure draws
// them (segment grouping is what pushes the measured instructions-to-
// nodes ratio toward the paper's ~3.1, Table 20).
constexpr NodeType kHeteroPattern[10] = {
    NodeType::Arithmetic, NodeType::Arithmetic,
    NodeType::Arithmetic, NodeType::Arithmetic,
    NodeType::Arithmetic, NodeType::Arithmetic,
    NodeType::FloatingPoint,
    NodeType::Storage,     NodeType::Storage,
    NodeType::Control,
};

}  // namespace

NodeType Fabric::slot_type(std::int32_t slot) const {
  switch (options_.layout) {
    case LayoutKind::Collapsed:
    case LayoutKind::Compact:
      return NodeType::Arithmetic;  // homogeneous: accepts everything
    case LayoutKind::Sparse:
      return (slot % 2) != 0 ? NodeType::Blank : NodeType::Arithmetic;
    case LayoutKind::Heterogeneous:
      return kHeteroPattern[static_cast<std::size_t>(slot) %
                            std::size(kHeteroPattern)];
  }
  return NodeType::Arithmetic;
}

std::int32_t Fabric::pattern_period() const noexcept {
  switch (options_.layout) {
    case LayoutKind::Collapsed:
    case LayoutKind::Compact:
      return 1;
    case LayoutKind::Sparse:
      return 2;
    case LayoutKind::Heterogeneous:
      return static_cast<std::int32_t>(std::size(kHeteroPattern));
  }
  return 1;
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
