#include "obs/critpath.hpp"

#include <algorithm>

#include "sim/plan.hpp"

namespace javaflow::obs {

std::string_view path_category_name(PathCategory c) noexcept {
  switch (c) {
    case PathCategory::SerialTransit: return "serial_transit";
    case PathCategory::MeshTransit: return "mesh_transit";
    case PathCategory::OperandWait: return "operand_wait";
    case PathCategory::FireStall: return "fire_stall";
    case PathCategory::Execution: return "execution";
    case PathCategory::TailHold: return "tail_hold";
    case PathCategory::RingService: return "ring_service";
  }
  return "?";
}

namespace {

// Spread a MeshTransit segment's ticks over the physical links of its
// X-Y route, read from the plan's precomputed route span: the links, in
// the order net::MeshNetwork::for_each_route_link walks them
// (tests/test_plan.cpp). Integer division with the remainder on the
// final link keeps the per-link sum exactly equal to the segment — no
// fractional ticks to lose.
void attribute_links(const sim::ExecPlan& plan, const PathStep& step,
                     Attribution& out) {
  const sim::ExecPlan::RouteSpan r =
      plan.find_route(step.from_phys, step.to_phys);
  if (r.count == 0) return;  // self-delivery: no link traversed
  const std::int64_t per = step.ticks() / r.count;
  std::int64_t spent = 0;
  for (std::int32_t i = 0; i < r.count; ++i) {
    const std::int64_t share =
        i + 1 == r.count ? step.ticks() - spent : per;
    spent += share;
    out.link_ticks[{r.links[i].src_phys, r.links[i].dir}] += share;
  }
}

}  // namespace

Attribution attribute(const FlightRecorder& fr,
                      const AttributeOptions& opts) {
  Attribution out;
  const std::vector<DepEdge>& edges = fr.edges();
  std::int32_t cur = fr.terminal();
  if (cur < 0 || static_cast<std::size_t>(cur) >= edges.size()) return out;

  out.ticks = edges[static_cast<std::size_t>(cur)].to_tick;

  // Walk terminal -> root. The cycle guard can't trip on recorder output
  // (parents always precede children), but a bounded walk turns a
  // hypothetical recording bug into an invalid attribution instead of a
  // hang.
  std::size_t walked = 0;
  const std::size_t limit = edges.size() + 1;
  std::int64_t expect_end = out.ticks;
  std::int64_t sum = 0;
  bool rooted = false;
  while (cur >= 0) {
    if (++walked > limit) return out;  // broken chain
    const DepEdge& e = edges[static_cast<std::size_t>(cur)];
    // Contiguity: this segment must end exactly where the one after it
    // (already visited) began.
    if (e.to_tick != expect_end || e.from_tick > e.to_tick) return out;
    const std::int64_t span = e.to_tick - e.from_tick;
    sum += span;
    out.category_ticks[static_cast<std::size_t>(e.category)] += span;
    if (opts.detail) {
      out.steps.push_back({e.from_tick, e.to_tick, e.node, e.from_phys,
                           e.to_phys, e.category, e.opcode});
      if (e.node >= 0) out.node_ticks[e.node] += span;
      if (e.category == PathCategory::Execution) {
        out.opcode_ticks[e.opcode] += span;
      }
    }
    expect_end = e.from_tick;
    if (e.parent < 0) {
      rooted = e.from_tick == 0;
      break;
    }
    cur = e.parent;
  }
  if (!rooted || sum != out.ticks) return out;

  if (opts.detail) {
    // Recorded back-to-front; present injection-first.
    std::reverse(out.steps.begin(), out.steps.end());
    if (opts.plan != nullptr && !opts.plan->collapsed()) {
      for (const PathStep& s : out.steps) {
        if (s.category == PathCategory::MeshTransit && s.from_phys >= 0 &&
            s.to_phys >= 0) {
          attribute_links(*opts.plan, s, out);
        }
      }
    }
  }
  out.valid = true;
  return out;
}

}  // namespace javaflow::obs
