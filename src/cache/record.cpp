#include "cache/record.hpp"

#include "cache/codec.hpp"

namespace javaflow::cache {

namespace {

constexpr std::uint32_t kMagic = 0x3143464a;  // "JFC1", little-endian

// The 8-byte trailer: WordHasher's first lane over every byte before it.
std::uint64_t trailer(std::string_view body) noexcept {
  return hash_words(body).hi;
}

// RunMetrics is serialized field by field. If you add a field to
// RunMetrics, extend BOTH functions below and bump kRecordFormatVersion
// — tests/test_cache.cpp's round-trip test catches a mismatch between
// the two, and the version bump invalidates old files.
void write_metrics(Writer& w, const sim::RunMetrics& m) {
  w.boolean(m.fits);
  w.boolean(m.completed);
  w.boolean(m.timed_out);
  w.boolean(m.exception);
  w.i64(m.ticks);
  w.i64(m.mesh_cycles);
  w.i64(m.instructions_fired);
  w.i32(m.distinct_fired);
  w.i32(m.static_size);
  w.i32(m.max_slot);
  w.i64(m.mesh_messages);
  w.i64(m.serial_messages);
  w.i64(m.ticks_exec_1plus);
  w.i64(m.ticks_exec_2plus);
}

sim::RunMetrics read_metrics(Reader& r) {
  sim::RunMetrics m;
  m.fits = r.boolean();
  m.completed = r.boolean();
  m.timed_out = r.boolean();
  m.exception = r.boolean();
  m.ticks = r.i64();
  m.mesh_cycles = r.i64();
  m.instructions_fired = r.i64();
  m.distinct_fired = r.i32();
  m.static_size = r.i32();
  m.max_slot = r.i32();
  m.mesh_messages = r.i64();
  m.serial_messages = r.i64();
  m.ticks_exec_1plus = r.i64();
  m.ticks_exec_2plus = r.i64();
  return m;
}

bool deserialize_impl(std::string_view bytes, bool check_fingerprint,
                      std::uint32_t expected_fingerprint,
                      MethodRecord& out) {
  // The header's version first: it names the trailer's algorithm.
  if (record_format_version(bytes) != kRecordFormatVersion) return false;
  // Then the trailer: an 8-byte digest of everything before it. Any
  // flipped/missing byte anywhere in the file fails here.
  if (bytes.size() < 16) return false;
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  if (Reader(bytes.substr(bytes.size() - 8)).u64() != trailer(body)) {
    return false;
  }

  // Parse straight into `out`, so a lane that loads record after record
  // reuses its cell vector's capacity; on failure `out` is unspecified.
  const std::string_view fields = body.substr(8);  // past the header
  Reader r(fields);
  out.fingerprint = r.u32();
  if (!r.ok()) return false;
  if (check_fingerprint && out.fingerprint != expected_fingerprint) {
    return false;
  }
  out.method_name = r.str();
  const std::uint32_t count = r.u32();
  if (!r.ok()) return false;
  // A cell entry is at least 16 (key) + 8 + metrics bytes; reject counts
  // the remaining bytes cannot possibly hold before reserving.
  if (count > body.size() / 24) return false;
  out.cells.clear();
  out.cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CellRecord& cell = out.cells.emplace_back();
    cell.key.hi = r.u64();
    cell.key.lo = r.u64();
    cell.static_insts = r.i32();
    cell.back_jumps = r.i32();
    cell.metrics = read_metrics(r);
    if (!r.ok()) return false;
  }
  // Trailing garbage between the last cell and the trailer is an
  // anomaly too.
  return r.pos() == fields.size();
}

}  // namespace

std::string serialize_record(const MethodRecord& record) {
  std::string out;
  Writer w(out);
  w.u32(kMagic);
  w.u32(kRecordFormatVersion);
  w.u32(record.fingerprint);
  w.str(record.method_name);
  w.u32(static_cast<std::uint32_t>(record.cells.size()));
  for (const CellRecord& cell : record.cells) {
    w.u64(cell.key.hi);
    w.u64(cell.key.lo);
    w.i32(cell.static_insts);
    w.i32(cell.back_jumps);
    write_metrics(w, cell.metrics);
  }
  w.u64(trailer(out));
  return out;
}

bool deserialize_record(std::string_view bytes,
                        std::uint32_t expected_fingerprint,
                        MethodRecord& out) {
  return deserialize_impl(bytes, /*check_fingerprint=*/true,
                          expected_fingerprint, out);
}

bool deserialize_record_any_fingerprint(std::string_view bytes,
                                        MethodRecord& out) {
  return deserialize_impl(bytes, /*check_fingerprint=*/false, 0, out);
}

std::optional<std::uint32_t> record_format_version(std::string_view bytes) {
  Reader r(bytes);
  if (r.u32() != kMagic) return std::nullopt;
  const std::uint32_t version = r.u32();
  if (!r.ok()) return std::nullopt;
  return version;
}

}  // namespace javaflow::cache
