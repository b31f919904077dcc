// Dynamic-execution profiler.
//
// Plays the role of the paper's instrumented JAMVM (§5.2): a 256-element
// counter array per executed method signature, plus invocation counts and
// base-vs-`_Quick` storage counters (Table 5).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bytecode/opcode.hpp"

namespace javaflow::jvm {

class Profiler {
 public:
  struct MethodStats {
    std::string benchmark;
    std::uint64_t invocations = 0;
    std::uint64_t total_ops = 0;
    std::array<std::uint64_t, 256> op_counts{};
  };

  // Stable per-method handle so hot interpreter loops can bump counters
  // without a map lookup per instruction.
  MethodStats& stats(const std::string& method, const std::string& benchmark) {
    MethodStats& s = methods_[method];
    if (s.benchmark.empty()) s.benchmark = benchmark;
    return s;
  }
  static void record_op(MethodStats& s, bytecode::Op op) noexcept {
    ++s.op_counts[static_cast<std::uint8_t>(op)];
    ++s.total_ops;
  }

  const std::map<std::string, MethodStats>& methods() const noexcept {
    return methods_;
  }

  // Total ByteCode operations across all methods.
  std::uint64_t total_ops() const noexcept;

  // Storage instructions executed in base (unresolved) form vs `_Quick`
  // form, across all methods (Table 5 inputs).
  std::uint64_t storage_base_ops() const noexcept;
  std::uint64_t storage_quick_ops() const noexcept;

  // Methods sorted by descending total_ops.
  std::vector<std::pair<std::string, const MethodStats*>> by_hotness() const;

  void clear() { methods_.clear(); }

 private:
  std::map<std::string, MethodStats> methods_;
};

}  // namespace javaflow::jvm
