#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

// Header-only codec; no link dependency on the cache library (which
// layers above obs).
#include "cache/codec.hpp"

namespace javaflow::obs {
namespace {

using cache::checksum;
using cache::Reader;
using cache::Writer;

constexpr std::uint32_t kMagic = 0x3153464a;  // "JFS1", little-endian

std::uint8_t cell_flags(const SnapshotCell& c) {
  return static_cast<std::uint8_t>(
      (c.fits ? 1u : 0u) | (c.completed ? 2u : 0u) |
      (c.timed_out ? 4u : 0u) | (c.exception ? 8u : 0u) |
      (c.attributed ? 16u : 0u));
}

// Minimal JSON string escaper (obs cannot reach analysis/report's).
void json_escape(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(ch));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string_view snapshot_scenario_name(std::uint8_t scenario) noexcept {
  switch (scenario) {
    case 0: return "bp1";
    case 1: return "bp2";
    case 2: return "trace";
  }
  return "?";
}

std::string serialize_snapshot(const Snapshot& snap) {
  std::string out;
  Writer w(out);
  w.u32(kMagic);
  w.u32(kSnapshotFormatVersion);
  w.u32(snap.attribution_fingerprint);
  w.u32(static_cast<std::uint32_t>(kNumPathCategories));
  w.str(snap.scheduler);
  w.i32(snap.stride);
  w.u32(static_cast<std::uint32_t>(snap.config_names.size()));
  for (std::size_t i = 0; i < snap.config_names.size(); ++i) {
    w.str(snap.config_names[i]);
    w.str(i < snap.config_texts.size() ? snap.config_texts[i]
                                       : std::string());
  }
  w.u32(static_cast<std::uint32_t>(snap.cells.size()));
  for (const SnapshotCell& c : snap.cells) {
    w.str(c.method);
    w.i32(c.config_index);
    w.u8(c.scenario);
    w.u8(cell_flags(c));
    w.i64(c.ticks);
    w.i64(c.lower_bound);
    for (const std::int64_t v : c.category_ticks) w.i64(v);
  }
  w.u64(checksum(out));
  return out;
}

bool deserialize_snapshot(std::string_view bytes, Snapshot& out) {
  // Trailer first: any flipped or missing byte anywhere fails here.
  if (bytes.size() < 8) return false;
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  Reader trailer(bytes.substr(bytes.size() - 8));
  if (trailer.u64() != checksum(body)) return false;

  Reader r(body);
  if (r.u32() != kMagic) return false;
  if (r.u32() != kSnapshotFormatVersion) return false;
  Snapshot snap;
  snap.attribution_fingerprint = r.u32();
  if (r.u32() != kNumPathCategories) return false;
  snap.scheduler = r.str();
  snap.stride = r.i32();
  const std::uint32_t nconfigs = r.u32();
  if (!r.ok() || nconfigs > body.size() / 8) return false;
  snap.config_names.reserve(nconfigs);
  snap.config_texts.reserve(nconfigs);
  for (std::uint32_t i = 0; i < nconfigs; ++i) {
    snap.config_names.push_back(r.str());
    snap.config_texts.push_back(r.str());
  }
  const std::uint32_t ncells = r.u32();
  if (!r.ok()) return false;
  // A cell is at least 4 (name length) + 4 + 1 + 1 + 16 + 7*8 bytes;
  // reject counts the remaining bytes cannot hold before reserving.
  if (ncells > body.size() / 32) return false;
  snap.cells.reserve(ncells);
  for (std::uint32_t i = 0; i < ncells; ++i) {
    SnapshotCell c;
    c.method = r.str();
    c.config_index = r.i32();
    const std::uint8_t scenario = r.u8();
    const std::uint8_t flags = r.u8();
    c.scenario = scenario;
    c.fits = (flags & 1u) != 0;
    c.completed = (flags & 2u) != 0;
    c.timed_out = (flags & 4u) != 0;
    c.exception = (flags & 8u) != 0;
    c.attributed = (flags & 16u) != 0;
    c.ticks = r.i64();
    c.lower_bound = r.i64();
    for (std::int64_t& v : c.category_ticks) v = r.i64();
    if (!r.ok()) return false;
    if (c.config_index < 0 ||
        static_cast<std::uint32_t>(c.config_index) >= nconfigs) {
      return false;
    }
    snap.cells.push_back(std::move(c));
  }
  if (r.pos() != body.size()) return false;  // trailing garbage
  out = std::move(snap);
  return true;
}

std::uint64_t snapshot_digest(std::string_view serialized) {
  if (serialized.size() < 8) return 0;
  Reader trailer(serialized.substr(serialized.size() - 8));
  return trailer.u64();
}

bool save_snapshot(const Snapshot& snap, const std::string& path) {
  const std::string bytes = serialize_snapshot(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool load_snapshot(const std::string& path, Snapshot& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize_snapshot(buf.str(), out);
}

SnapshotDiff diff_snapshots(const Snapshot& a, const Snapshot& b) {
  SnapshotDiff d;
  d.cells_a = a.cells.size();
  d.cells_b = b.cells.size();
  if (a.attribution_fingerprint != b.attribution_fingerprint) {
    d.comparable = false;
    d.notes.push_back("attribution fingerprint differs (" +
                      std::to_string(a.attribution_fingerprint) + " vs " +
                      std::to_string(b.attribution_fingerprint) + ")");
  }
  if (a.scheduler != b.scheduler) {
    d.notes.push_back("scheduler differs (" + a.scheduler + " vs " +
                      b.scheduler + ")");
  }
  if (a.stride != b.stride) {
    d.notes.push_back("stride differs (" + std::to_string(a.stride) +
                      " vs " + std::to_string(b.stride) + ")");
  }
  if (a.config_names != b.config_names) {
    d.notes.push_back("config set differs");
  } else if (a.config_texts != b.config_texts) {
    d.notes.push_back("config parameters differ for a shared name");
  }

  auto key_of = [](const Snapshot& s, const SnapshotCell& c) {
    const std::string cfg =
        c.config_index >= 0 && static_cast<std::size_t>(c.config_index) <
                                   s.config_names.size()
            ? s.config_names[static_cast<std::size_t>(c.config_index)]
            : std::string("?");
    return std::tuple<std::string, std::uint8_t, std::string>(
        cfg, c.scenario, c.method);
  };

  std::map<std::tuple<std::string, std::uint8_t, std::string>,
           const SnapshotCell*>
      in_b;
  for (const SnapshotCell& c : b.cells) in_b[key_of(b, c)] = &c;

  std::map<std::tuple<std::string, std::uint8_t, std::string>, bool>
      seen_in_a;
  for (const SnapshotCell& ca : a.cells) {
    const auto key = key_of(a, ca);
    seen_in_a[key] = true;
    const auto it = in_b.find(key);
    if (it == in_b.end()) {
      SnapshotDiff::CellDelta cd;
      cd.method = ca.method;
      cd.config = std::get<0>(key);
      cd.scenario = ca.scenario;
      cd.only_in_a = true;
      cd.ticks_a = ca.ticks;
      cd.lower_a = ca.lower_bound;
      d.changed.push_back(std::move(cd));
      continue;
    }
    const SnapshotCell& cb = *it->second;
    ++d.matched;
    const bool flags_changed =
        ca.fits != cb.fits || ca.completed != cb.completed ||
        ca.timed_out != cb.timed_out || ca.exception != cb.exception ||
        ca.attributed != cb.attributed;
    bool categories_changed = false;
    SnapshotDiff::CellDelta cd;
    if (d.comparable) {
      for (std::size_t k = 0; k < kNumPathCategories; ++k) {
        cd.delta[k] = cb.category_ticks[k] - ca.category_ticks[k];
        if (cd.delta[k] != 0) categories_changed = true;
        d.net_category_drift[k] += cd.delta[k];
      }
    }
    d.net_tick_drift += cb.ticks - ca.ticks;
    if (ca.ticks == cb.ticks && ca.lower_bound == cb.lower_bound &&
        !flags_changed && !categories_changed) {
      continue;
    }
    cd.method = ca.method;
    cd.config = std::get<0>(key);
    cd.scenario = ca.scenario;
    cd.flags_changed = flags_changed;
    cd.ticks_a = ca.ticks;
    cd.ticks_b = cb.ticks;
    cd.lower_a = ca.lower_bound;
    cd.lower_b = cb.lower_bound;
    d.changed.push_back(std::move(cd));
  }
  for (const SnapshotCell& cb : b.cells) {
    const auto key = key_of(b, cb);
    if (seen_in_a.find(key) != seen_in_a.end()) continue;
    SnapshotDiff::CellDelta cd;
    cd.method = cb.method;
    cd.config = std::get<0>(key);
    cd.scenario = cb.scenario;
    cd.only_in_b = true;
    cd.ticks_b = cb.ticks;
    cd.lower_b = cb.lower_bound;
    d.changed.push_back(std::move(cd));
  }

  std::sort(d.changed.begin(), d.changed.end(),
            [](const SnapshotDiff::CellDelta& x,
               const SnapshotDiff::CellDelta& y) {
              const std::int64_t dx = std::abs(x.ticks_b - x.ticks_a);
              const std::int64_t dy = std::abs(y.ticks_b - y.ticks_a);
              if (dx != dy) return dx > dy;
              return std::tie(x.config, x.scenario, x.method) <
                     std::tie(y.config, y.scenario, y.method);
            });

  d.identical = d.comparable && d.notes.empty() && d.changed.empty() &&
                d.cells_a == d.cells_b;
  return d;
}

void write_diff_text(std::ostream& os, const SnapshotDiff& d,
                     std::size_t max_rows) {
  os << "snapshot diff: " << d.cells_a << " vs " << d.cells_b
     << " cells, " << d.matched << " matched\n";
  for (const std::string& n : d.notes) os << "  note: " << n << "\n";
  if (!d.comparable) {
    os << "  NOT COMPARABLE: category vectors use different attribution "
          "semantics\n";
    return;
  }
  if (d.identical) {
    os << "  identical\n";
    return;
  }
  os << "  net tick drift (B-A): " << d.net_tick_drift << "\n";
  for (std::size_t k = 0; k < kNumPathCategories; ++k) {
    if (d.net_category_drift[k] == 0) continue;
    os << "    " << path_category_name(static_cast<PathCategory>(k))
       << ": " << d.net_category_drift[k] << "\n";
  }
  os << "  changed cells: " << d.changed.size() << "\n";
  std::size_t shown = 0;
  for (const SnapshotDiff::CellDelta& c : d.changed) {
    if (shown >= max_rows) {
      os << "    ... and " << d.changed.size() - shown << " more\n";
      break;
    }
    ++shown;
    os << "    " << c.config << "/"
       << snapshot_scenario_name(c.scenario) << " " << c.method << ": ";
    if (c.only_in_a) {
      os << "only in A (ticks " << c.ticks_a << ")\n";
      continue;
    }
    if (c.only_in_b) {
      os << "only in B (ticks " << c.ticks_b << ")\n";
      continue;
    }
    os << c.ticks_a << " -> " << c.ticks_b;
    if (c.flags_changed) os << " [flags]";
    if (c.lower_a != c.lower_b) {
      os << " [bound " << c.lower_a << " -> " << c.lower_b << "]";
    }
    bool first = true;
    for (std::size_t k = 0; k < kNumPathCategories; ++k) {
      if (c.delta[k] == 0) continue;
      os << (first ? " (" : ", ")
         << path_category_name(static_cast<PathCategory>(k))
         << (c.delta[k] > 0 ? " +" : " ") << c.delta[k];
      first = false;
    }
    if (!first) os << ")";
    os << "\n";
  }
}

void write_diff_json(std::ostream& os, const SnapshotDiff& d) {
  os << "{\n  \"comparable\": " << (d.comparable ? "true" : "false")
     << ",\n  \"identical\": " << (d.identical ? "true" : "false")
     << ",\n  \"cells_a\": " << d.cells_a
     << ",\n  \"cells_b\": " << d.cells_b
     << ",\n  \"matched\": " << d.matched
     << ",\n  \"net_tick_drift\": " << d.net_tick_drift
     << ",\n  \"net_category_drift\": {";
  for (std::size_t k = 0; k < kNumPathCategories; ++k) {
    if (k != 0) os << ", ";
    json_escape(os, path_category_name(static_cast<PathCategory>(k)));
    os << ": " << d.net_category_drift[k];
  }
  os << "},\n  \"notes\": [";
  for (std::size_t i = 0; i < d.notes.size(); ++i) {
    if (i != 0) os << ", ";
    json_escape(os, d.notes[i]);
  }
  os << "],\n  \"changed\": [";
  for (std::size_t i = 0; i < d.changed.size(); ++i) {
    const SnapshotDiff::CellDelta& c = d.changed[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"method\": ";
    json_escape(os, c.method);
    os << ", \"config\": ";
    json_escape(os, c.config);
    os << ", \"scenario\": ";
    json_escape(os, snapshot_scenario_name(c.scenario));
    os << ", \"only_in_a\": " << (c.only_in_a ? "true" : "false")
       << ", \"only_in_b\": " << (c.only_in_b ? "true" : "false")
       << ", \"flags_changed\": " << (c.flags_changed ? "true" : "false")
       << ", \"ticks_a\": " << c.ticks_a << ", \"ticks_b\": " << c.ticks_b
       << ", \"lower_a\": " << c.lower_a << ", \"lower_b\": " << c.lower_b
       << ", \"delta\": {";
    for (std::size_t k = 0; k < kNumPathCategories; ++k) {
      if (k != 0) os << ", ";
      json_escape(os, path_category_name(static_cast<PathCategory>(k)));
      os << ": " << c.delta[k];
    }
    os << "}}";
  }
  os << (d.changed.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace javaflow::obs
