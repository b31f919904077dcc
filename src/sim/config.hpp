// Machine configurations (paper Table 15) and timing assumptions
// (Table 17 execution cycles, Figure 25 network transit times).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fabric/fabric.hpp"
#include "net/ring_network.hpp"

namespace javaflow::sim {

// The calendar queue is the only event scheduler; the enum, its name
// and resolve_scheduler() remain so result-cache keys keep their bytes.
enum class SchedulerKind : std::uint8_t { Auto, Calendar };

std::string_view scheduler_name(SchedulerKind k) noexcept;

// Maps Auto to the concrete scheduler: always Calendar.
SchedulerKind resolve_scheduler(SchedulerKind requested) noexcept;

struct MachineConfig {
  std::string name;
  fabric::LayoutKind layout = fabric::LayoutKind::Compact;
  // Serial clocks per mesh clock (Table 15: "up to N serial clocks
  // between each mesh clock"). Larger = relatively faster serial network.
  int serial_per_mesh = 2;
  int width = 10;          // mesh rows are 10 units wide (§7.2)
  int capacity = 10000;    // Instruction Node budget
  // Instruction Data Units per Instruction Node (§4.2). The paper's
  // simulations use 1 ("for simplicity and to stress the DataFlow
  // Fabric"); larger values pack several instructions per physical node,
  // sharing one Instruction Execution Unit (execution serializes within
  // a node) but shrinking network spans. Swept by bench/ablation_idus.
  int idus_per_node = 1;
  net::RingLatencies ring; // service-time assumptions (DESIGN.md)

  bool collapsed() const noexcept {
    return layout == fabric::LayoutKind::Collapsed;
  }
  fabric::FabricOptions fabric_options() const {
    return fabric::FabricOptions{layout, capacity};
  }

  // Versioned, stable, field-complete textual form — the input to the
  // result cache's configuration digest (src/cache/key.hpp). Two configs
  // with equal canonical text simulate identically; any field that can
  // change simulation results MUST appear here (and the leading version
  // tag must be bumped when the encoding changes shape).
  std::string canonical_text() const;
};

// The six Table 15 configurations, in paper order:
//   0 Baseline    — collapsed dataflow machine (distance 1, free serial)
//   1 Compact10   — 10-wide mesh, 10 serial clocks per mesh clock
//   2 Compact4    — 10-wide mesh, 4 serial clocks per mesh clock
//   3 Compact2    — 10-wide mesh, 2 serial clocks per mesh clock
//   4 Sparse2     — as Compact2 with a blank node between instructions
//   5 Hetero2     — as Compact2 with the Figure 26 heterogeneous mix
std::vector<MachineConfig> table15_configs();

// Lookup by name ("Baseline", "Compact10", ...); throws on unknown names.
MachineConfig config_by_name(const std::string& name);

}  // namespace javaflow::sim
