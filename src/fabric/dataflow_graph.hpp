// DataFlow graph of a method: the producer/consumer edges the fabric's
// address-resolution protocol establishes (paper §6.2).
//
// Built by abstract interpretation of the operand stack over the CFG,
// tracking the *set* of producing instructions per stack slot. This is
// the path-exact answer the serial protocol's branch-ID-tagged needs-up
// messages compute in a distributed way (Figures 21-22); the Resolver
// cross-checks its protocol simulation against this graph, and the
// execution engine uses these edges as each node's consumer array.
//
// Side numbering: side 1 is the top-of-stack operand (the last value the
// instruction pops), side `pop` the deepest — matching Figure 22 where
// the nearest producers feed side 1.
#pragma once

#include <cstdint>
#include <vector>

#include "bytecode/method.hpp"

namespace javaflow::fabric {

struct Edge {
  std::int32_t producer = -1;  // linear address of the producing instruction
  std::int32_t consumer = -1;  // linear address of the consuming instruction
  std::uint8_t side = 1;       // consumer operand slot (1 = top of stack)
  bool merge = false;          // consumer side has >= 2 producers
  bool back = false;           // producer lies below the consumer (loop)
};

struct DataflowGraph {
  std::vector<Edge> edges;
  // Per producer linear address: outgoing edges (the node's resolved
  // consumer address array, §4.2 "targetDataFlowAddresses").
  std::vector<std::vector<Edge>> consumers_of;
  // Per consumer linear address and side (side-1 indexed): producers.
  // Encoded in `edges`; use producers_of(consumer, side) to query.

  std::int32_t merge_count = 0;       // consumer sides with >= 2 producers
  std::int32_t back_merge_count = 0;  // should be 0 for valid Java (§5.4)
  std::int32_t total_dflows = 0;      // resolved producer->consumer links

  std::vector<Edge> producers_of(std::int32_t consumer,
                                 std::uint8_t side) const;

  // Fan-out of a producer: number of consumer links it must send on fire.
  std::size_t fan_out(std::int32_t producer) const {
    return consumers_of[static_cast<std::size_t>(producer)].size();
  }
};

// Builds the graph. The method must verify (callers pass methods produced
// by the Assembler); throws std::runtime_error otherwise.
DataflowGraph build_dataflow_graph(const bytecode::Method& m,
                                   const bytecode::ConstantPool& pool);

}  // namespace javaflow::fabric
