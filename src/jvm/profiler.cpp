#include "jvm/profiler.hpp"

#include <algorithm>

namespace javaflow::jvm {

using bytecode::Group;
using bytecode::Op;

std::uint64_t Profiler::total_ops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [name, s] : methods_) total += s.total_ops;
  return total;
}

namespace {
bool is_storage_group(Group g) {
  return g == Group::MemConstant || g == Group::MemRead ||
         g == Group::MemWrite;
}
}  // namespace

std::uint64_t Profiler::storage_base_ops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [name, s] : methods_) {
    for (int b = 0; b < 256; ++b) {
      if (s.op_counts[static_cast<std::size_t>(b)] == 0) continue;
      if (!bytecode::is_valid_opcode(static_cast<std::uint8_t>(b))) continue;
      const Op op = static_cast<Op>(b);
      if (is_storage_group(bytecode::op_info(op).group) &&
          bytecode::has_quick_form(op)) {
        total += s.op_counts[static_cast<std::size_t>(b)];
      }
    }
  }
  return total;
}

std::uint64_t Profiler::storage_quick_ops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [name, s] : methods_) {
    for (int b = 0; b < 256; ++b) {
      if (s.op_counts[static_cast<std::size_t>(b)] == 0) continue;
      if (!bytecode::is_valid_opcode(static_cast<std::uint8_t>(b))) continue;
      const Op op = static_cast<Op>(b);
      if (bytecode::is_quick(op)) {
        total += s.op_counts[static_cast<std::size_t>(b)];
      }
    }
  }
  return total;
}

std::vector<std::pair<std::string, const Profiler::MethodStats*>>
Profiler::by_hotness() const {
  std::vector<std::pair<std::string, const MethodStats*>> out;
  out.reserve(methods_.size());
  for (const auto& [name, s] : methods_) out.emplace_back(name, &s);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second->total_ops != b.second->total_ops) {
      return a.second->total_ops > b.second->total_ops;
    }
    return a.first < b.first;
  });
  return out;
}

}  // namespace javaflow::jvm
