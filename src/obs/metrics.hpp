// Telemetry metrics for the simulator (observability layer).
//
// The Chapter 7 evaluation reports only end-of-run aggregates (IPC, FoM,
// Table 26 parallelism), which says a configuration is slow but not
// *where* the ticks went. A MetricsRegistry breaks a run down along the
// axes the paper's machine model exposes:
//   * mesh operand traffic per link-direction and per physical link
//     (§6.1 Figure 18 — X-Y routed Manhattan transfers),
//   * serial-chain token messages, hop ticks, and per-command counts
//     (§6.1 Figure 17 — the ordered forward/reverse networks),
//   * per-node firing counts and operand-buffer high-water marks
//     (§4.2 Figure 13 — Instruction Node resources),
//   * memory / GPP ring request counts and service-latency histograms
//     (§6.1 Figure 19, Figure 25 service times),
//   * per-group execution-cost histograms (Table 17) and firing-stall
//     histograms (ticks from HEAD arrival to firing start).
//
// A registry is attached to an Engine via EngineOptions::metrics; a null
// pointer (the default) makes every hook a single branch, so the
// instrumented engine is a guaranteed no-op when telemetry is off
// (verified by bench/sweep_speed staying within noise of the pre-layer
// baseline). Counters accumulate across runs, and every recording
// operation is commutative (add / max / bucket-add), so a registry
// attached to several engines holds the same values whatever order
// their runs come in.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace javaflow::obs {

// Power-of-two-bucket histogram for tick / cycle distributions. Bucket 0
// counts zeros; bucket i >= 1 counts values in [2^(i-1), 2^i). The top
// bucket absorbs everything past 2^(kBuckets-2) ticks, far beyond the
// engine's 4M-tick budget.
struct Histogram {
  static constexpr std::size_t kBuckets = 26;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void record(std::int64_t value) noexcept;
  double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  bool operator==(const Histogram&) const = default;
};

// Mesh link directions under X-Y routing (x first, then y). East is +x,
// North is +y in the serpentine grid of net::MeshNetwork.
enum class LinkDir : std::uint8_t { East, West, North, South };
inline constexpr std::size_t kNumLinkDirs = 4;
std::string_view link_dir_name(LinkDir d) noexcept;

struct MetricsRegistry {
  static constexpr std::size_t kNumCommands = 16;  // >= net::Command values
  static constexpr std::size_t kNumGroups = 16;    // >= bytecode::Group values
  static constexpr std::size_t kNumRingServices = 4;
  static constexpr std::size_t kNumOpcodes = 256;

  // ---- serial (ordered) network ----
  std::uint64_t serial_messages = 0;
  std::uint64_t serial_hop_ticks = 0;  // transit ticks summed over messages
  std::array<std::uint64_t, kNumCommands> serial_commands{};

  // ---- mesh (DataFlow) network ----
  std::uint64_t mesh_messages = 0;
  std::uint64_t mesh_transit_cycles = 0;  // mesh cycles summed over messages
  std::array<std::uint64_t, kNumLinkDirs> mesh_dir_hops{};
  // Per-link utilization: (source physical slot, LinkDir) -> traversals.
  // Ordered map so iteration (and JSON export) is deterministic.
  std::map<std::pair<std::int32_t, std::uint8_t>, std::uint64_t> mesh_link_load;

  // ---- per-node (physical chain slot) ----
  std::vector<std::uint64_t> firings_by_node;     // execution starts
  std::vector<std::uint32_t> buffer_hwm_by_node;  // operand-buffer high water

  // ---- execution ----
  std::array<std::uint64_t, kNumOpcodes> firings_by_opcode{};
  std::array<Histogram, kNumGroups> exec_ticks_by_group;
  // Ticks from HEAD-token arrival at a node to its firing start: the
  // operand-wait stall the aggregate IPC hides.
  Histogram fire_stall_ticks;
  // Ticks a TAIL token is held at an unfired node (§6.3: the TAIL waits
  // for every instruction above it to fire).
  Histogram tail_hold_ticks;

  // ---- memory / GPP ring ----
  std::array<std::uint64_t, kNumRingServices> ring_requests{};
  std::array<Histogram, kNumRingServices> ring_latency_ticks;

  std::uint64_t runs = 0;  // engine runs that reported into this registry

  // ---- recording helpers (engine-side) ----
  void node_firing(std::int32_t phys_slot, std::uint8_t opcode) noexcept;
  void buffer_high_water(std::int32_t phys_slot, std::size_t depth);
  void mesh_link(std::int32_t src_phys_slot, LinkDir dir);

  // Deterministic JSON export (stable key order, no floats beyond means).
  void write_json(std::ostream& os, int indent = 0) const;

  bool operator==(const MetricsRegistry&) const = default;
};

}  // namespace javaflow::obs
