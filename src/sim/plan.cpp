#include "sim/plan.hpp"

#include <cstring>
#include <unordered_map>

#include "bytecode/opcode.hpp"
#include "fabric/fabric.hpp"
#include "net/mesh_network.hpp"
#include "sim/branch_predictor.hpp"

namespace javaflow::sim {

namespace {

std::size_t align_up(std::size_t offset, std::size_t alignment) {
  return (offset + alignment - 1) & ~(alignment - 1);
}

bool plan_is_switch(bytecode::Op op) {
  return op == bytecode::Op::tableswitch || op == bytecode::Op::lookupswitch;
}

}  // namespace

void ExecPlanBuilder::build_into(ExecPlan& out, const bytecode::Method& m,
                                 const fabric::DataflowGraph& graph,
                                 const fabric::Placement* placement,
                                 const MachineConfig& config) {
  const std::size_t nn = m.code.size();
  out.collapsed_ = config.collapsed();
  out.k_ = config.serial_per_mesh;
  out.hop_ = out.collapsed_ ? 0 : 1;
  out.idus_ = std::max(config.idus_per_node, 1);
  out.width_ = std::max(config.width, 1);
  out.max_locals_ = m.max_locals;
  out.node_count_ = static_cast<std::int32_t>(nn);
  out.service_ticks_[static_cast<std::size_t>(net::RingService::MemoryRead)] =
      out.k_ * config.ring.memory_read;
  out.service_ticks_[static_cast<std::size_t>(net::RingService::MemoryWrite)] =
      out.k_ * config.ring.memory_write;
  out.service_ticks_[static_cast<std::size_t>(
      net::RingService::ConstantRead)] = out.k_ * config.ring.constant_read;
  out.service_ticks_[static_cast<std::size_t>(net::RingService::GppService)] =
      out.k_ * config.ring.gpp_service;

  fabric::Placement local;
  const fabric::Placement* pl = placement;
  if (pl == nullptr) {
    fabric::Fabric fabric(config.fabric_options());
    local = fabric::load_method(fabric, m);
    pl = &local;
  }
  out.fits_ = pl->fits;
  out.max_slot_ = pl->max_slot;
  if (!pl->fits) {
    // An unfit method never executes: keep the scalars (the engine
    // reports fits=false from them) and drop every lane.
    out.max_phys_ = -1;
    out.route_pair_count_ = 0;
    out.arena_.clear();
    out.group_ = out.op_ = out.flags_ = out.branch_kinds_ = nullptr;
    out.pop_need_ = out.local_reg_ = out.slot_ = out.phys_ = nullptr;
    out.target_ = out.operand_ = out.exec_cost_ = out.produce_extra_ =
        nullptr;
    out.operand_hi_ = out.forward_fanout_ = nullptr;
    out.edge_begin_ = out.oper_begin_ = nullptr;
    out.edges_ = nullptr;
    out.opers_ = nullptr;
    out.route_links_ = nullptr;
    out.route_pairs_ = nullptr;
    return;
  }
  out.max_phys_ = pl->max_slot / out.idus_;

  // ---- lower the edges (producer-major, back edges dropped) ----
  const net::MeshNetwork mesh(out.width_);
  edges_.clear();
  edge_begin_.clear();
  edge_begin_.reserve(nn + 1);
  links_.clear();
  pairs_.clear();
  std::unordered_map<std::uint64_t, std::int32_t> pair_index;
  pair_index.reserve(64);
  for (std::size_t i = 0; i < nn; ++i) {
    edge_begin_.push_back(static_cast<std::int32_t>(edges_.size()));
    const std::int32_t from_phys = pl->slot_of[i] / out.idus_;
    for (const fabric::Edge& e : graph.consumers_of[i]) {
      if (e.back) continue;  // absent in valid Java (Table 7)
      PlanEdge pe;
      pe.consumer = e.consumer;
      pe.side = e.side;
      pe.to_phys =
          pl->slot_of[static_cast<std::size_t>(e.consumer)] / out.idus_;
      pe.mesh_cycles = static_cast<std::int32_t>(
          mesh.transit_mesh_cycles(from_phys, pe.to_phys, out.collapsed_));
      pe.delivery_ticks =
          static_cast<std::int32_t>(out.k_ * pe.mesh_cycles);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from_phys))
           << 32) |
          static_cast<std::uint32_t>(pe.to_phys);
      auto [it, inserted] =
          pair_index.emplace(key, static_cast<std::int32_t>(pairs_.size()));
      if (inserted) {
        ExecPlan::RoutePair pair;
        pair.key = key;
        pair.begin = static_cast<std::int32_t>(links_.size());
        // Route links follow the telemetry's actual walk even on the
        // collapsed Baseline (cost 1, real serpentine coordinates).
        mesh.for_each_route_link(
            from_phys, pe.to_phys,
            [&](std::int32_t src, std::int32_t dx, std::int32_t dy) {
              const obs::LinkDir dir = dx > 0   ? obs::LinkDir::East
                                       : dx < 0 ? obs::LinkDir::West
                                       : dy > 0 ? obs::LinkDir::North
                                                : obs::LinkDir::South;
              links_.push_back(
                  PlanRouteLink{src, static_cast<std::uint8_t>(dir)});
            });
        pair.count =
            static_cast<std::int32_t>(links_.size()) - pair.begin;
        pairs_.push_back(pair);
      }
      const ExecPlan::RoutePair& pair =
          pairs_[static_cast<std::size_t>(it->second)];
      pe.route_begin = pair.begin;
      pe.route_count = static_cast<std::int16_t>(pair.count);
      edges_.push_back(pe);
    }
  }
  edge_begin_.push_back(static_cast<std::int32_t>(edges_.size()));
  const std::size_t ne = edges_.size();
  const std::size_t nl = links_.size();

  // Consumer-major operand view of the same arcs (bound analyzer).
  oper_begin_.assign(nn + 1, 0);
  for (const PlanEdge& pe : edges_) {
    ++oper_begin_[static_cast<std::size_t>(pe.consumer) + 1];
  }
  for (std::size_t i = 0; i < nn; ++i) oper_begin_[i + 1] += oper_begin_[i];
  opers_.resize(ne);
  oper_fill_.assign(nn, 0);
  for (std::size_t i = 0; i < nn; ++i) {
    for (std::int32_t ei = edge_begin_[i]; ei < edge_begin_[i + 1]; ++ei) {
      const PlanEdge& pe = edges_[static_cast<std::size_t>(ei)];
      const auto c = static_cast<std::size_t>(pe.consumer);
      PlanOperand po;
      po.producer = static_cast<std::int32_t>(i);
      po.delivery_ticks = pe.delivery_ticks;
      po.side = pe.side;
      opers_[static_cast<std::size_t>(oper_begin_[c] + oper_fill_[c])] = po;
      ++oper_fill_[c];
    }
  }

  // Binary-searchable route table, sorted by (from_phys, to_phys).
  std::sort(pairs_.begin(), pairs_.end(),
            [](const ExecPlan::RoutePair& a, const ExecPlan::RoutePair& b) {
              return a.key < b.key;
            });
  const std::size_t np = pairs_.size();

  const std::vector<std::uint8_t> kinds = classify_branches(m);

  // ---- lay out the arena ----
  constexpr std::size_t kI32Lanes = 10;  // per-node int32 lanes below
  std::size_t off = 0;
  const std::size_t off_pairs = off;
  off += np * sizeof(ExecPlan::RoutePair);
  off = align_up(off, alignof(std::int32_t));
  const std::size_t off_i32 = off;
  off += kI32Lanes * nn * sizeof(std::int32_t);
  const std::size_t off_edge_begin = off;
  off += (nn + 1) * sizeof(std::int32_t);
  const std::size_t off_oper_begin = off;
  off += (nn + 1) * sizeof(std::int32_t);
  off = align_up(off, alignof(PlanEdge));
  const std::size_t off_edges = off;
  off += ne * sizeof(PlanEdge);
  off = align_up(off, alignof(PlanOperand));
  const std::size_t off_opers = off;
  off += ne * sizeof(PlanOperand);
  off = align_up(off, alignof(PlanRouteLink));
  const std::size_t off_links = off;
  off += nl * sizeof(PlanRouteLink);
  const std::size_t off_u8 = off;
  off += 4 * nn;  // group, op, flags, branch_kind

  out.arena_.resize(off);
  std::byte* base = out.arena_.data();

  auto* pairs = reinterpret_cast<ExecPlan::RoutePair*>(base + off_pairs);
  if (np != 0) {
    std::memcpy(pairs, pairs_.data(), np * sizeof(ExecPlan::RoutePair));
  }
  auto* i32 = reinterpret_cast<std::int32_t*>(base + off_i32);
  std::int32_t* pop_need = i32 + 0 * nn;
  std::int32_t* local_reg = i32 + 1 * nn;
  std::int32_t* slot = i32 + 2 * nn;
  std::int32_t* phys = i32 + 3 * nn;
  std::int32_t* target = i32 + 4 * nn;
  std::int32_t* operand = i32 + 5 * nn;
  std::int32_t* exec_cost = i32 + 6 * nn;
  std::int32_t* produce_extra = i32 + 7 * nn;
  std::int32_t* operand_hi = i32 + 8 * nn;
  std::int32_t* forward_fanout = i32 + 9 * nn;
  auto* edge_begin =
      reinterpret_cast<std::int32_t*>(base + off_edge_begin);
  std::memcpy(edge_begin, edge_begin_.data(),
              (nn + 1) * sizeof(std::int32_t));
  auto* oper_begin =
      reinterpret_cast<std::int32_t*>(base + off_oper_begin);
  std::memcpy(oper_begin, oper_begin_.data(),
              (nn + 1) * sizeof(std::int32_t));
  auto* edges = reinterpret_cast<PlanEdge*>(base + off_edges);
  auto* opers = reinterpret_cast<PlanOperand*>(base + off_opers);
  if (ne != 0) {
    std::memcpy(edges, edges_.data(), ne * sizeof(PlanEdge));
    std::memcpy(opers, opers_.data(), ne * sizeof(PlanOperand));
  }
  auto* links = reinterpret_cast<PlanRouteLink*>(base + off_links);
  if (nl != 0) {
    std::memcpy(links, links_.data(), nl * sizeof(PlanRouteLink));
  }
  auto* u8 = reinterpret_cast<std::uint8_t*>(base + off_u8);
  std::uint8_t* group = u8 + 0 * nn;
  std::uint8_t* op = u8 + 1 * nn;
  std::uint8_t* flags = u8 + 2 * nn;
  std::uint8_t* branch_kind = u8 + 3 * nn;

  // ---- per-node dispatch lanes ----
  std::memset(operand_hi, 0, nn * sizeof(std::int32_t));
  std::memset(forward_fanout, 0, nn * sizeof(std::int32_t));
  for (std::size_t i = 0; i < nn; ++i) {
    const bytecode::Instruction& inst = m.code[i];
    const bytecode::Group g = inst.group();
    group[i] = static_cast<std::uint8_t>(g);
    op[i] = static_cast<std::uint8_t>(inst.op);
    const bool sw = plan_is_switch(inst.op);
    const bool is_goto =
        inst.op == bytecode::Op::goto_ || inst.op == bytecode::Op::goto_w;
    std::uint8_t f = 0;
    if (g == bytecode::Group::ControlFlow || g == bytecode::Group::Return ||
        sw) {
      f |= kPlanBuffers;
    }
    if (g == bytecode::Group::MemRead || g == bytecode::Group::MemWrite) {
      f |= kPlanOrdered;
    }
    if (is_goto) f |= kPlanGoto;
    if (is_goto && inst.target < static_cast<std::int32_t>(i)) {
      f |= kPlanBackwardGoto;
    }
    if (sw) f |= kPlanSwitch;
    if (g == bytecode::Group::LocalRead || g == bytecode::Group::LocalInc ||
        g == bytecode::Group::LocalWrite) {
      f |= kPlanLocal;
    }
    flags[i] = f;
    branch_kind[i] = i < kinds.size() ? kinds[i] : 0;
    pop_need[i] = inst.pop;
    local_reg[i] = bytecode::local_register(inst);
    slot[i] = pl->slot_of[i];
    phys[i] = pl->slot_of[i] / out.idus_;
    target[i] = inst.target;
    operand[i] = inst.operand;
    exec_cost[i] =
        static_cast<std::int32_t>(out.k_ * bytecode::execution_mesh_cycles(g));
    std::int64_t extra = 0;
    if (g == bytecode::Group::MemRead) {
      extra = out.service_ticks(net::RingService::MemoryRead);
    } else if (g == bytecode::Group::Call ||
               (g == bytecode::Group::Special && !sw)) {
      extra = out.service_ticks(net::RingService::GppService);
    }
    produce_extra[i] = static_cast<std::int32_t>(extra);
    for (std::int32_t ei = edge_begin[i]; ei < edge_begin[i + 1]; ++ei) {
      const PlanEdge& pe = edges[ei];
      ++forward_fanout[i];
      const auto c = static_cast<std::size_t>(pe.consumer);
      operand_hi[c] =
          std::max(operand_hi[c], static_cast<std::int32_t>(pe.side));
    }
  }

  out.route_pair_count_ = static_cast<std::int32_t>(np);
  out.group_ = group;
  out.op_ = op;
  out.flags_ = flags;
  out.branch_kinds_ = branch_kind;
  out.pop_need_ = pop_need;
  out.local_reg_ = local_reg;
  out.slot_ = slot;
  out.phys_ = phys;
  out.target_ = target;
  out.operand_ = operand;
  out.exec_cost_ = exec_cost;
  out.produce_extra_ = produce_extra;
  out.operand_hi_ = operand_hi;
  out.forward_fanout_ = forward_fanout;
  out.edge_begin_ = edge_begin;
  out.oper_begin_ = oper_begin;
  out.edges_ = edges;
  out.opers_ = opers;
  out.route_links_ = links;
  out.route_pairs_ = pairs;
}

}  // namespace javaflow::sim
