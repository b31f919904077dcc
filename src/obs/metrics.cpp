#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace javaflow::obs {

namespace {

std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v == 0) return 0;
  std::size_t b = 1;
  while (b + 1 < Histogram::kBuckets && (v >> b) != 0) ++b;
  return b;
}

void indent_to(std::ostream& os, int n) {
  for (int i = 0; i < n; ++i) os << ' ';
}

template <typename Array>
void write_u64_array(std::ostream& os, const Array& a) {
  os << '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != 0) os << ',';
    os << static_cast<std::uint64_t>(a[i]);
  }
  os << ']';
}

void write_histogram(std::ostream& os, const Histogram& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
     << ",\"max\":" << h.max << ",\"mean\":" << h.mean() << ",\"buckets\":";
  write_u64_array(os, h.buckets);
  os << '}';
}

}  // namespace

void Histogram::record(std::int64_t value) noexcept {
  const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
  ++buckets[bucket_of(v)];
  ++count;
  sum += v;
  max = std::max(max, v);
}

std::string_view link_dir_name(LinkDir d) noexcept {
  switch (d) {
    case LinkDir::East: return "east";
    case LinkDir::West: return "west";
    case LinkDir::North: return "north";
    case LinkDir::South: return "south";
  }
  return "?";
}

void MetricsRegistry::node_firing(std::int32_t phys_slot,
                                  std::uint8_t opcode) noexcept {
  if (phys_slot < 0) return;
  const auto i = static_cast<std::size_t>(phys_slot);
  if (i >= firings_by_node.size()) firings_by_node.resize(i + 1, 0);
  ++firings_by_node[i];
  ++firings_by_opcode[opcode];
}

void MetricsRegistry::buffer_high_water(std::int32_t phys_slot,
                                        std::size_t depth) {
  if (phys_slot < 0) return;
  const auto i = static_cast<std::size_t>(phys_slot);
  if (i >= buffer_hwm_by_node.size()) buffer_hwm_by_node.resize(i + 1, 0);
  buffer_hwm_by_node[i] =
      std::max(buffer_hwm_by_node[i], static_cast<std::uint32_t>(depth));
}

void MetricsRegistry::mesh_link(std::int32_t src_phys_slot, LinkDir dir) {
  ++mesh_dir_hops[static_cast<std::size_t>(dir)];
  ++mesh_link_load[{src_phys_slot, static_cast<std::uint8_t>(dir)}];
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  const int in1 = indent + 2;
  os << "{\n";
  indent_to(os, in1);
  os << "\"runs\": " << runs << ",\n";
  indent_to(os, in1);
  os << "\"serial\": {\"messages\":" << serial_messages
     << ",\"hop_ticks\":" << serial_hop_ticks << ",\"commands\":";
  write_u64_array(os, serial_commands);
  os << "},\n";
  indent_to(os, in1);
  os << "\"mesh\": {\"messages\":" << mesh_messages
     << ",\"transit_cycles\":" << mesh_transit_cycles << ",\"dir_hops\":{";
  for (std::size_t i = 0; i < kNumLinkDirs; ++i) {
    if (i != 0) os << ',';
    os << '"' << link_dir_name(static_cast<LinkDir>(i)) << "\":"
       << mesh_dir_hops[i];
  }
  os << "},\"links\":[";
  bool first = true;
  for (const auto& [link, n] : mesh_link_load) {
    if (!first) os << ',';
    first = false;
    os << "{\"slot\":" << link.first << ",\"dir\":\""
       << link_dir_name(static_cast<LinkDir>(link.second))
       << "\",\"messages\":" << n << '}';
  }
  os << "]},\n";
  indent_to(os, in1);
  os << "\"nodes\": {\"firings\":";
  write_u64_array(os, firings_by_node);
  os << ",\"buffer_high_water\":";
  write_u64_array(os, buffer_hwm_by_node);
  os << "},\n";
  indent_to(os, in1);
  os << "\"firings_by_opcode\": ";
  write_u64_array(os, firings_by_opcode);
  os << ",\n";
  indent_to(os, in1);
  os << "\"exec_ticks_by_group\": [";
  for (std::size_t i = 0; i < kNumGroups; ++i) {
    if (i != 0) os << ',';
    write_histogram(os, exec_ticks_by_group[i]);
  }
  os << "],\n";
  indent_to(os, in1);
  os << "\"fire_stall_ticks\": ";
  write_histogram(os, fire_stall_ticks);
  os << ",\n";
  indent_to(os, in1);
  os << "\"tail_hold_ticks\": ";
  write_histogram(os, tail_hold_ticks);
  os << ",\n";
  indent_to(os, in1);
  os << "\"ring\": {\"requests\":";
  write_u64_array(os, ring_requests);
  os << ",\"latency_ticks\":[";
  for (std::size_t i = 0; i < kNumRingServices; ++i) {
    if (i != 0) os << ',';
    write_histogram(os, ring_latency_ticks[i]);
  }
  os << "]}\n";
  indent_to(os, indent);
  os << "}";
}

}  // namespace javaflow::obs
