#include "analysis/report.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "util/json.hpp"

namespace javaflow::analysis {

Table& Table::columns(std::vector<std::string> names) {
  columns_ = std::move(names);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string Table::pct(double fraction, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << fraction * 100.0
     << "%";
  return os.str();
}

std::string Table::big(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  os << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      os << "  " << std::left << std::setw(static_cast<int>(widths[c]))
         << cell;
    }
    os << "\n";
  };
  print_row(columns_);
  std::string rule;
  for (const std::size_t w : widths) rule += "  " + std::string(w, '-');
  os << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto line = [&os](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ",";
      os << csv_escape(cells[c]);
    }
    os << "\n";
  };
  line(columns_);
  for (const auto& row : rows_) line(row);
}

void print_header(const std::string& text, std::ostream& os) {
  os << "\n" << std::string(72, '=') << "\n" << text << "\n"
     << std::string(72, '=') << "\n";
}

namespace {

void write_profile_lane(std::ostream& os, const SweepProfile::Lane& lane) {
  os << "{\"verify_s\":" << lane.verify_s
     << ",\"resolve_s\":" << lane.resolve_s
     << ",\"place_s\":" << lane.place_s
     << ",\"plan_s\":" << lane.plan_s
     << ",\"execute_s\":" << lane.execute_s
     << ",\"cache_s\":" << lane.cache_s
     << ",\"methods\":" << lane.methods << ",\"cells\":" << lane.cells
     << ",\"cache_hit_cells\":" << lane.cache_hit_cells
     << ",\"cache_miss_cells\":" << lane.cache_miss_cells
     << ",\"dedup_cells\":" << lane.dedup_cells << "}";
}

}  // namespace

void write_sweep_json(std::ostream& os, const Sweep& sweep, int indent) {
  const std::string in0(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = in0 + "  ";
  const std::string in2 = in1 + "  ";

  const std::vector<FomRow> fom = fom_rows(sweep, Filter::All);
  const std::vector<NetworkRow> net = network_rows(sweep);

  os << "{\n";
  os << in1 << "\"configs\": [\n";
  for (std::size_t ci = 0; ci < sweep.configs.size(); ++ci) {
    const FomRow& f = fom[ci];
    const NetworkRow& n = net[ci];
    os << in2 << "{\"name\": \"";
    util::json_escape(os, n.config);
    os << "\", \"samples\": " << n.samples
       << ", \"ipc_mean\": " << f.ipc_mean
       << ", \"fm_mean\": " << f.fm_mean
       << ", \"mesh_messages\": " << n.total_mesh_messages
       << ", \"serial_messages\": " << n.total_serial_messages
       << ", \"mean_mesh_messages\": " << n.mean_mesh_messages
       << ", \"mean_serial_messages\": " << n.mean_serial_messages
       << ", \"mean_ticks_exec_1plus\": " << n.mean_ticks_exec_1plus
       << ", \"mean_ticks_exec_2plus\": " << n.mean_ticks_exec_2plus
       << "}" << (ci + 1 < sweep.configs.size() ? "," : "") << "\n";
  }
  os << in1 << "],\n";

  // Result-cache outcome (docs/PERF.md "Result cache"). The counters are
  // cell-granular and thread-count-invariant.
  os << in1 << "\"cache\": {\"mode\": \"";
  util::json_escape(os, sweep.cache.mode);
  os << "\", \"hit_cells\": " << sweep.cache.hit_cells
     << ", \"miss_cells\": " << sweep.cache.miss_cells
     << ", \"dedup_cells\": " << sweep.cache.dedup_cells
     << ", \"stored_records\": " << sweep.cache.stored_records << "},\n";

  // Critical-path attribution (docs/OBSERVABILITY.md "Attribution"),
  // present only when the sweep ran with SweepOptions::attribution: per
  // config, the summed category vector over attributed usable cells.
  if (!sweep.attribution.empty()) {
    const std::vector<AttributionRow> attr = attribution_rows(sweep);
    os << in1 << "\"attribution\": [\n";
    for (std::size_t ci = 0; ci < attr.size(); ++ci) {
      const AttributionRow& a = attr[ci];
      os << in2 << "{\"name\": \"";
      util::json_escape(os, a.config);
      os << "\", \"samples\": " << a.samples
         << ", \"total_ticks\": " << a.total_ticks;
      for (std::size_t c = 0; c < obs::kNumPathCategories; ++c) {
        os << ", \""
           << obs::path_category_name(static_cast<obs::PathCategory>(c))
           << "\": " << a.category_ticks[c];
      }
      os << "}" << (ci + 1 < attr.size() ? "," : "") << "\n";
    }
    os << in1 << "],\n";
  }

  const SweepProfile::Lane total = sweep.profile.total();
  os << in1 << "\"profile\": {\n"
     << in2 << "\"wall_s\": " << sweep.profile.wall_s << ",\n"
     << in2 << "\"total\": ";
  write_profile_lane(os, total);
  os << ",\n" << in2 << "\"lanes\": [";
  for (std::size_t li = 0; li < sweep.profile.lanes.size(); ++li) {
    if (li != 0) os << ",";
    write_profile_lane(os, sweep.profile.lanes[li]);
  }
  os << "]\n" << in1 << "}\n" << in0 << "}";
}

}  // namespace javaflow::analysis
