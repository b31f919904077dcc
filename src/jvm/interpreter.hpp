// Reference stack interpreter for the ByteCode subset.
//
// Serves two purposes in the reproduction:
//  1. It is the measurement substrate that replaces the paper's
//     instrumented JAMVM (§5.2): running the workload suite under the
//     profiler yields the dynamic instruction mixes of Tables 1-5.
//  2. It is the semantic oracle the fabric is tested against (the same
//     method must compute the same answer on both).
//
// Like the JVMs the paper describes (§3.6), storage instructions are
// rewritten to their resolved `_Quick` forms on first execution; the
// rewrite happens in a per-interpreter code cache so the Program image
// (and therefore all static analyses) keeps the architected base forms.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bytecode/method.hpp"
#include "jvm/heap.hpp"
#include "jvm/profiler.hpp"
#include "jvm/value.hpp"

namespace javaflow::jvm {

class Interpreter {
 public:
  struct Options {
    std::uint64_t max_steps = 2'000'000'000;  // runaway guard
    int max_call_depth = 512;
  };

  // Host-native method: receives args (locals order) and returns a value.
  using Intrinsic =
      std::function<Value(Interpreter&, const std::vector<Value>&)>;

  explicit Interpreter(bytecode::Program& program,
                       Profiler* profiler = nullptr);
  Interpreter(bytecode::Program& program, Profiler* profiler,
              Options options);

  // Invoke a method by qualified name. Args are the initial local
  // registers 0..n-1 (including `this` for instance methods, §3.6).
  Value invoke(const std::string& qualified_name, std::vector<Value> args);
  Value invoke(const bytecode::Method& m, std::vector<Value> args);

  Heap& heap() noexcept { return heap_; }
  const Heap& heap() const noexcept { return heap_; }
  bytecode::Program& program() noexcept { return program_; }

  // Registers a native method (e.g. "java.lang.Math.sqrt(D)D"). Standard
  // Math/System intrinsics are pre-registered.
  void register_intrinsic(const std::string& qualified_name, Intrinsic fn);

  // Control-flow observation hook: called after each branch / switch
  // instruction with the linear pc and the pc actually taken. Used by
  // the trace-driven execution mode (an enhancement beyond the paper's
  // BP-1/BP-2 methodology).
  using BranchHook = std::function<void(const bytecode::Method&,
                                        std::int32_t pc,
                                        std::int32_t next_pc)>;
  void set_branch_hook(BranchHook hook) { branch_hook_ = std::move(hook); }

  std::uint64_t steps() const noexcept { return steps_; }

 private:
  // Runs `m` and every bytecode method it calls on one heap-allocated
  // frame stack, so call depth is bounded by Options::max_call_depth,
  // not by the native stack.
  Value run(const bytecode::Method& m, std::vector<Value> args);
  std::vector<bytecode::Instruction>& code_for(const bytecode::Method& m);
  void register_default_intrinsics();

  bytecode::Program& program_;
  Profiler* profiler_ = nullptr;
  Options options_;
  Heap heap_;
  std::uint64_t steps_ = 0;
  std::map<const bytecode::Method*, std::vector<bytecode::Instruction>>
      code_cache_;
  std::map<std::string, Intrinsic> intrinsics_;
  BranchHook branch_hook_;
};

}  // namespace javaflow::jvm
