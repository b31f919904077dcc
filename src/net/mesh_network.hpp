// The DataFlow mesh network (paper §6.1, Figure 18).
//
// Chain slots map to (x, y) grid coordinates with a serpentine
// (boustrophedon) layout of the configured width, compressing the linear
// method into 2-D so average producer->consumer arcs stay short (the
// "10 wide node structure" design assumption, §7.2). X-Y routing implies
// Manhattan-distance transfer times with no deadlocks; a transfer costs
// one mesh cycle per hop, minimum one cycle.
#pragma once

#include <cstdint>

namespace javaflow::net {

struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;
};

class MeshNetwork {
 public:
  explicit MeshNetwork(std::int32_t width) : width_(width) {}

  std::int32_t width() const noexcept { return width_; }

  Coord coord_of(std::int32_t slot) const noexcept {
    const std::int32_t y = slot / width_;
    std::int32_t x = slot % width_;
    if ((y & 1) != 0) x = width_ - 1 - x;  // serpentine rows
    return Coord{x, y};
  }

  // Manhattan distance in mesh hops; a message to the local node still
  // takes one router traversal.
  std::int64_t distance(std::int32_t from_slot, std::int32_t to_slot) const {
    const Coord a = coord_of(from_slot);
    const Coord b = coord_of(to_slot);
    const std::int64_t d =
        std::int64_t{a.x > b.x ? a.x - b.x : b.x - a.x} +
        std::int64_t{a.y > b.y ? a.y - b.y : b.y - a.y};
    return d > 0 ? d : 1;
  }

  // Transfer time in mesh cycles. The Baseline collapses all distances to
  // a single cycle (Table 15: "dataflow distance is 1").
  std::int64_t transit_mesh_cycles(std::int32_t from_slot,
                                   std::int32_t to_slot,
                                   bool collapsed) const {
    return collapsed ? 1 : distance(from_slot, to_slot);
  }

  // Inverse of coord_of: the chain slot sitting at a grid coordinate.
  std::int32_t slot_of(Coord c) const noexcept {
    const std::int32_t x = (c.y & 1) != 0 ? width_ - 1 - c.x : c.x;
    return c.y * width_ + x;
  }

  // Walks the X-Y route (x first, then y) between two slots, invoking
  // fn(link_source_slot, dx, dy) for every link traversed, where exactly
  // one of dx/dy is ±1. Used by the telemetry layer for per-link
  // utilization accounting; routing itself stays latency-only.
  template <typename Fn>
  void for_each_route_link(std::int32_t from_slot, std::int32_t to_slot,
                           Fn&& fn) const {
    Coord cur = coord_of(from_slot);
    const Coord dst = coord_of(to_slot);
    while (cur.x != dst.x) {
      const std::int32_t step = dst.x > cur.x ? 1 : -1;
      fn(slot_of(cur), step, 0);
      cur.x += step;
    }
    while (cur.y != dst.y) {
      const std::int32_t step = dst.y > cur.y ? 1 : -1;
      fn(slot_of(cur), 0, step);
      cur.y += step;
    }
  }

 private:
  std::int32_t width_;
};

}  // namespace javaflow::net
