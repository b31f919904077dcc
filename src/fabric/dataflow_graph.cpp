#include "fabric/dataflow_graph.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <set>
#include <stdexcept>

namespace javaflow::fabric {
namespace {

using bytecode::Instruction;
using bytecode::Method;
using bytecode::Op;

// Abstract stack: each slot holds the set of possible producers.
using Slot = std::set<std::int32_t>;
using Stack = std::vector<Slot>;

std::vector<std::int32_t> successors(const Method& m, std::size_t at) {
  const Instruction& inst = m.code[at];
  std::vector<std::int32_t> out;
  const bytecode::Group g = inst.group();
  if (g == bytecode::Group::Return) return out;
  if (inst.op == Op::tableswitch || inst.op == Op::lookupswitch) {
    const bytecode::SwitchTable& t =
        m.switches[static_cast<std::size_t>(inst.operand)];
    out = t.targets;
    out.push_back(t.default_target);
    return out;
  }
  if (inst.is_branch()) {
    out.push_back(inst.target);
    if (inst.op != Op::goto_ && inst.op != Op::goto_w) {
      out.push_back(static_cast<std::int32_t>(at) + 1);
    }
    return out;
  }
  out.push_back(static_cast<std::int32_t>(at) + 1);
  return out;
}

}  // namespace

std::vector<Edge> DataflowGraph::producers_of(std::int32_t consumer,
                                              std::uint8_t side) const {
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    if (e.consumer == consumer && e.side == side) out.push_back(e);
  }
  return out;
}

DataflowGraph build_dataflow_graph(const bytecode::Method& m,
                                   const bytecode::ConstantPool& pool) {
  (void)pool;
  const std::size_t n = m.code.size();
  std::vector<Stack> entry(n);
  std::vector<bool> reachable(n, false);
  std::deque<std::int32_t> worklist;

  reachable[0] = true;
  worklist.push_back(0);

  // Edge accumulation: consumer x side -> producer set, so iterations to
  // fixpoint do not duplicate edges.
  std::set<std::tuple<std::int32_t, std::int32_t, std::uint8_t>> edge_set;

  auto merge_into = [&](std::int32_t succ, const Stack& s) {
    if (succ < 0 || static_cast<std::size_t>(succ) >= n) {
      throw std::runtime_error("dataflow graph: successor out of range");
    }
    const auto idx = static_cast<std::size_t>(succ);
    if (!reachable[idx]) {
      reachable[idx] = true;
      entry[idx] = s;
      worklist.push_back(succ);
      return;
    }
    if (entry[idx].size() != s.size()) {
      throw std::runtime_error(
          "dataflow graph: merge depth mismatch (method not verified?)");
    }
    bool grew = false;
    for (std::size_t k = 0; k < s.size(); ++k) {
      for (const std::int32_t p : s[k]) {
        if (entry[idx][k].insert(p).second) grew = true;
      }
    }
    if (grew) worklist.push_back(succ);
  };

  while (!worklist.empty()) {
    const auto at = static_cast<std::size_t>(worklist.front());
    worklist.pop_front();
    Stack s = entry[at];
    const Instruction& inst = m.code[at];

    // Pops: side 1 is the top of stack.
    for (int k = 0; k < inst.pop; ++k) {
      if (s.empty()) {
        throw std::runtime_error("dataflow graph: stack underflow");
      }
      const Slot top = std::move(s.back());
      s.pop_back();
      for (const std::int32_t producer : top) {
        edge_set.emplace(producer, static_cast<std::int32_t>(at),
                         static_cast<std::uint8_t>(k + 1));
      }
    }
    // Pushes: this instruction is the sole producer of its results.
    for (int k = 0; k < inst.push; ++k) {
      s.push_back(Slot{static_cast<std::int32_t>(at)});
    }
    for (const std::int32_t succ : successors(m, at)) {
      merge_into(succ, s);
    }
  }

  DataflowGraph g;
  g.consumers_of.resize(n);
  // Group by (consumer, side) to mark merges.
  std::map<std::pair<std::int32_t, std::uint8_t>, std::vector<std::int32_t>>
      by_consumer_side;
  for (const auto& [producer, consumer, side] : edge_set) {
    by_consumer_side[{consumer, side}].push_back(producer);
  }
  for (auto& [key, producers] : by_consumer_side) {
    const bool merge = producers.size() >= 2;
    if (merge) ++g.merge_count;
    for (const std::int32_t producer : producers) {
      Edge e;
      e.producer = producer;
      e.consumer = key.first;
      e.side = key.second;
      e.merge = merge;
      e.back = producer >= key.first;
      if (e.back) ++g.back_merge_count;
      g.edges.push_back(e);
      g.consumers_of[static_cast<std::size_t>(producer)].push_back(e);
      ++g.total_dflows;
    }
  }
  for (auto& out : g.consumers_of) {
    std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.consumer, a.side) < std::tie(b.consumer, b.side);
    });
  }
  return g;
}

}  // namespace javaflow::fabric
