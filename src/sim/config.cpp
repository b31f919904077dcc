#include "sim/config.hpp"

#include <stdexcept>

namespace javaflow::sim {

std::string_view scheduler_name(SchedulerKind k) noexcept {
  return k == SchedulerKind::Calendar ? "calendar" : "auto";
}

SchedulerKind resolve_scheduler(SchedulerKind) noexcept {
  return SchedulerKind::Calendar;
}

std::string MachineConfig::canonical_text() const {
  // The name is deliberately included: named Table 15 configs are
  // distinct rows in every report, so a renamed-but-identical config
  // re-simulating once is cheaper than ever conflating two rows.
  std::string out = "cfgv1";
  auto field = [&out](const char* key, long long v) {
    out += '|';
    out += key;
    out += '=';
    out += std::to_string(v);
  };
  out += "|name=";
  out += name;
  field("layout", static_cast<long long>(layout));
  field("serial_per_mesh", serial_per_mesh);
  field("width", width);
  field("capacity", capacity);
  field("idus_per_node", idus_per_node);
  field("ring_memory_read", ring.memory_read);
  field("ring_memory_write", ring.memory_write);
  field("ring_constant_read", ring.constant_read);
  field("ring_gpp_service", ring.gpp_service);
  return out;
}

std::vector<MachineConfig> table15_configs() {
  using fabric::LayoutKind;
  auto make = [](const char* name, LayoutKind layout, int serial_per_mesh) {
    MachineConfig cfg;
    cfg.name = name;
    cfg.layout = layout;
    cfg.serial_per_mesh = serial_per_mesh;
    return cfg;
  };
  return {
      make("Baseline", LayoutKind::Collapsed, 1),
      make("Compact10", LayoutKind::Compact, 10),
      make("Compact4", LayoutKind::Compact, 4),
      make("Compact2", LayoutKind::Compact, 2),
      make("Sparse2", LayoutKind::Sparse, 2),
      make("Hetero2", LayoutKind::Heterogeneous, 2),
  };
}

MachineConfig config_by_name(const std::string& name) {
  for (MachineConfig& c : table15_configs()) {
    if (c.name == name) return c;
  }
  throw std::runtime_error("unknown configuration: " + name);
}

}  // namespace javaflow::sim
