// Memory / GPP ring service times (paper §6.1, Figure 19).
//
// Selected (storage/control) Instruction Nodes interface to high-speed
// rings that reach the Memory subsystem and the controlling General
// Purpose Processor. The paper leaves exact latencies as design-dependent
// constants (Figure 25 "service times ... assumed to be constant"); the
// values here are the reproduction's documented assumptions (DESIGN.md)
// and apply uniformly to every configuration, so Figure-of-Merit ratios
// are insensitive to them. Reads and GPP services stall the requesting
// node until the reply returns; writes are posted (§6.3 Storage).
#pragma once

#include <cstdint>

namespace javaflow::net {

struct RingLatencies {
  // Round-trip service times in mesh cycles. The paper calls its own
  // memory assumptions "optimistic" (§7.3 Detailed Assumptions): a fast
  // ring to a near memory; these values are deliberately small so network
  // and node effects — the paper's subject — dominate the comparison.
  std::int64_t memory_read = 4;
  std::int64_t memory_write = 4;   // posted; the node does not stall
  std::int64_t constant_read = 4;  // unordered Method Area access
  std::int64_t gpp_service = 12;   // calls, object services
};

}  // namespace javaflow::net
