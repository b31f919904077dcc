// Branch outcome generators for method execution (paper §7.3 "Method
// Execution").
//
// The paper did not gather trace data, so each method runs twice under
// synthetic branch behaviour:
//   * forward jumps: 50 % taken, alternating per site — BP1 starts with
//     the first execution taken, BP2 with the first not taken;
//   * back jumps: 90 % taken — nine taken executions, then a fall-through.
//
// A third, trace-driven mode (an enhancement beyond the paper) replays
// outcomes recorded by the reference interpreter.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "bytecode/method.hpp"

namespace javaflow::sim {

// Classifies each conditional jump of `m`: Backward for latches,
// LoopExit for forward jumps that exit an enclosing head-test loop
// (a backward branch below the site targets at-or-above it and the
// site's target lies beyond that latch), Forward otherwise.
std::vector<std::uint8_t> classify_branches(const bytecode::Method& m);

// How a conditional jump participates in looping. `Backward` jumps are
// loop latches (JAVAC's bottom-test form); `LoopExit` marks *forward*
// jumps that leave a loop whose latch is an unconditional backward goto
// (the head-test form) — the paper's 90 %-looping rule is about loop trip
// counts, so both forms get ten iterations per visit.
enum class BranchKind : std::uint8_t { Forward, Backward, LoopExit };

class BranchPredictor {
 public:
  enum class Scenario : std::uint8_t { BP1, BP2, Trace };

  explicit BranchPredictor(Scenario scenario) : scenario_(scenario) {}

  // decide() and decide_switch() are out of line (branch_predictor.cpp):
  // inlined into the kernel's control handler they changed its hot
  // loop's code layout and cost a full sweep about 15 %.

  // Outcome for the conditional jump at linear address `site`.
  bool decide(std::int32_t site, BranchKind kind);

  // Case selection for tableswitch/lookupswitch at `site` among
  // `num_targets` arms (incl. default, index num_targets-1): round-robin,
  // the switch-dispatch analogue of the alternating forward predictor.
  std::int32_t decide_switch(std::int32_t site, std::int32_t num_targets);

  // Trace mode: append a recorded outcome for a site.
  void feed_trace(std::int32_t site, bool taken) {
    trace_[site].push_back(taken);
  }
  void feed_switch_trace(std::int32_t site, std::int32_t arm) {
    switch_trace_[site].push_back(arm);
  }

  Scenario scenario() const noexcept { return scenario_; }

  // ---- counters (BP1/BP2) ----
  //
  // A synthetic outcome is a pure function of the branch kind, the
  // scenario and how often its site has decided before: Backward and
  // LoopExit sites share one counter per site, Forward sites and switch
  // sites have their own. The loop fast-forward (docs/PERF.md "Loop
  // fast-forward") reads the counters, predicts outcomes from them and
  // advances them over the periods it skips.

  // Decisions made so far at a conditional jump of `kind` (or a switch)
  // at `site`.
  std::int32_t count(std::int32_t site, BranchKind kind) const {
    return read(counts_of(kind), site);
  }
  std::int32_t switch_count(std::int32_t site) const {
    return read(switch_counts_, site);
  }
  void advance(std::int32_t site, BranchKind kind, std::int32_t by) {
    slot(counts_of(kind), site) += by;
  }
  void advance_switch(std::int32_t site, std::int32_t by) {
    slot(switch_counts_, site) += by;
  }

  // What decide() returns at a site of `kind` whose counter reads
  // `count` (BP1/BP2).
  bool taken_at(BranchKind kind, std::int64_t count) const {
    switch (kind) {
      case BranchKind::Backward: return count % 10 < 9;  // 10th falls through
      case BranchKind::LoopExit: return count % 10 == 9;  // exits on the 10th
      case BranchKind::Forward: break;
    }
    return (count % 2 == 0) == (scenario_ == Scenario::BP1);
  }
  // What decide_switch() returns at a counter of `count`.
  static std::int32_t switch_arm_at(std::int64_t count,
                                    std::int32_t num_targets) {
    return static_cast<std::int32_t>(count % num_targets);
  }

 private:
  std::vector<std::int32_t>& counts_of(BranchKind kind) {
    return kind == BranchKind::Forward ? fwd_counts_ : back_counts_;
  }
  const std::vector<std::int32_t>& counts_of(BranchKind kind) const {
    return kind == BranchKind::Forward ? fwd_counts_ : back_counts_;
  }
  static std::int32_t& slot(std::vector<std::int32_t>& counts,
                            std::int32_t site) {
    const auto s = static_cast<std::size_t>(site);
    if (s >= counts.size()) counts.resize(s + 1, 0);
    return counts[s];
  }
  static std::int32_t read(const std::vector<std::int32_t>& counts,
                           std::int32_t site) {
    const auto s = static_cast<std::size_t>(site);
    return s < counts.size() ? counts[s] : 0;
  }

  Scenario scenario_;
  // Per-site decision counters, indexed by site (absent = 0).
  std::vector<std::int32_t> fwd_counts_;
  std::vector<std::int32_t> back_counts_;
  std::vector<std::int32_t> switch_counts_;
  std::map<std::int32_t, std::deque<bool>> trace_;
  std::map<std::int32_t, std::deque<std::int32_t>> switch_trace_;
};

}  // namespace javaflow::sim
