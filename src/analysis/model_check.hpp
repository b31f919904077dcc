// Abstract token-flow model checker (docs/ANALYSIS.md).
//
// Exhaustively explores the abstract states of the serial token bundle
// over a method's dataflow graph to prove deadlock-freedom and
// token-ordering safety where JF-E004's syntactic back-edge rule is
// merely conservative. The abstraction is
//
//     (holder, fired-set, visited-set)
//
// where `holder` is the control node currently buffering the bundle
// (§6.3: exactly one such node holds it between control transfers),
// `fired-set` the instructions that have fired in the current epoch
// pattern, and `visited-set` the instructions the bundle has traversed.
// Token positions are *derived* from these sets and the chain order —
// e.g. register token r is available below node w only once every
// unfired r-toucher above has fired — so the state space stays finite
// and small. Within one epoch firing is monotone (a firing can enable
// but never disable another — the Kahn-network argument), which makes
// maximal-progress closure exact for stuck-state detection.
//
// Branch and switch arms are explored nondeterministically (the engine's
// predictors do take every arm across the BP1/BP2 scenarios), so a
// `Proved` verdict covers every resolvable control path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "bytecode/method.hpp"
#include "fabric/dataflow_graph.hpp"

namespace javaflow::analysis {

enum class ModelVerdict : std::uint8_t {
  Proved,        // every reachable abstract state completes
  Deadlock,      // a reachable stuck state exists (JF-E009)
  Inconclusive,  // state budget exhausted (JF-W103)
};

std::string_view model_verdict_name(ModelVerdict v) noexcept;

struct ModelCheckOptions {
  // Abstract-state exploration budget; exceeding it yields Inconclusive,
  // never a wrong verdict. The 1605-method corpus peaks far below this.
  std::size_t max_states = 1u << 16;
};

struct ModelCheckResult {
  ModelVerdict verdict = ModelVerdict::Inconclusive;
  std::size_t states_explored = 0;
  // First stuck state found (Deadlock only): the holder control node and
  // a compact arm-decision trace from the entry ("@6->0(back)" etc.).
  std::int32_t deadlock_node = -1;
  std::string witness;
};

// Checks one method. `graph` must be the dataflow graph of `m`; the
// result is placement-independent (token ordering is a chain property).
ModelCheckResult model_check(const bytecode::Method& m,
                             const fabric::DataflowGraph& graph,
                             const ModelCheckOptions& options = {});

// JF-E009 on Deadlock (with witness), JF-W103 on Inconclusive.
void lint_model_check(const bytecode::Method& m, const ModelCheckResult& r,
                      const LintOptions& options, LintReport& out);

}  // namespace javaflow::analysis
