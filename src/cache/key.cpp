#include "cache/key.hpp"

#include <bit>
#include <vector>

namespace javaflow::cache {

namespace {

// Canonical-encoding version tags. Bump a tag when the corresponding
// serialization below changes shape or hasher, so old digests can never
// alias new ones even by accident.
constexpr std::uint32_t kMethodEncoding = 2;
constexpr std::uint32_t kPoolEncoding = 2;
constexpr std::uint32_t kEngineOptionsEncoding = 1;

std::uint64_t lo32(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

// An int32 array after its length: two elements per word, the first in
// the low half, an odd last element zero-padded.
void add_i32s(WordHasher& h, const std::vector<std::int32_t>& values) {
  h.word(values.size());
  std::size_t i = 0;
  for (; i + 2 <= values.size(); i += 2) {
    h.word(lo32(values[i]) | lo32(values[i + 1]) << 32);
  }
  if (i < values.size()) h.word(lo32(values[i]));
}

// A cell key's bytes, in order: engine fingerprint, method body, pool
// (the part every cell of a method shares), then config, engine options
// and scenario. cell_key and cell_keys both hash through these three.
Hasher cell_prefix(std::uint32_t engine_fingerprint,
                   const Hash128& method_body, const Hash128& pool) {
  Hasher h;
  h.u32(engine_fingerprint);
  h.u64(method_body.hi);
  h.u64(method_body.lo);
  h.u64(pool.hi);
  h.u64(pool.lo);
  return h;
}

void add_config(Hasher& h, const Hash128& config,
                const Hash128& engine_options) {
  h.u64(config.hi);
  h.u64(config.lo);
  h.u64(engine_options.hi);
  h.u64(engine_options.lo);
}

Hash128 finish_cell(Hasher h, sim::BranchPredictor::Scenario scenario) {
  h.u8(static_cast<std::uint8_t>(scenario));
  return h.digest();
}

}  // namespace

void to_hex(const Hash128& h, char* out) noexcept {
  static const char* digits = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? h.hi : h.lo;
    const int shift = 8 * (7 - (i % 8));
    const auto byte = static_cast<unsigned>((word >> shift) & 0xff);
    out[2 * static_cast<std::size_t>(i)] = digits[byte >> 4];
    out[2 * static_cast<std::size_t>(i) + 1] = digits[byte & 0xf];
  }
}

std::string to_hex(const Hash128& h) {
  std::string out(32, '0');
  to_hex(h, out.data());
  return out;
}

// The body as packed words, field by field: the fields each word holds
// are fixed, and every variable-length part follows its length, so the
// words spell exactly one body.
Hash128 hash_method_body(const bytecode::Method& m) {
  WordHasher h;
  h.word(kMethodEncoding | std::uint64_t{m.max_locals} << 32 |
         std::uint64_t{m.max_stack} << 48);
  h.word(std::uint64_t{m.num_args} |
         std::uint64_t{static_cast<std::uint8_t>(m.return_type)} << 8 |
         std::uint64_t{m.is_static} << 16);
  // One byte per type (ValueType is a uint8_t enum), eight per word.
  h.word(m.arg_types.size());
  h.bytes(m.arg_types.data(), m.arg_types.size());
  h.word(m.code.size());
  for (const bytecode::Instruction& inst : m.code) {
    h.word(std::uint64_t{static_cast<std::uint8_t>(inst.op)} |
           std::uint64_t{inst.pop} << 8 | std::uint64_t{inst.push} << 16 |
           lo32(inst.target) << 32);
    h.word(lo32(inst.operand) | lo32(inst.operand2) << 32);
  }
  h.word(m.switches.size());
  for (const bytecode::SwitchTable& sw : m.switches) {
    add_i32s(h, sw.keys);
    add_i32s(h, sw.targets);
    h.word(lo32(sw.default_target));
  }
  return h.digest();
}

Hash128 hash_pool(const bytecode::ConstantPool& pool) {
  WordHasher h;
  h.word(kPoolEncoding);
  h.word(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bytecode::CpEntry& e = pool.at(static_cast<std::int32_t>(i));
    // Every payload field is hashed regardless of kind: unused payloads
    // are default-initialized, so the encoding stays unambiguous without
    // per-kind branching.
    h.word(std::uint64_t{static_cast<std::uint8_t>(e.kind)} |
           std::uint64_t{static_cast<std::uint8_t>(e.field.type)} << 8 |
           std::uint64_t{e.field.is_static} << 16 |
           std::uint64_t{e.method.arg_values} << 24 |
           std::uint64_t{static_cast<std::uint8_t>(e.method.return_type)}
               << 32);
    h.word(static_cast<std::uint64_t>(e.i));
    h.word(std::bit_cast<std::uint64_t>(e.d));
    h.word(lo32(e.field.resolved_slot) | lo32(e.cls.dims) << 32);
    h.str(e.s);
    h.str(e.field.class_name);
    h.str(e.field.field_name);
    h.str(e.method.qualified_name);
    h.str(e.cls.class_name);
  }
  return h.digest();
}

Hash128 hash_config(const sim::MachineConfig& config) {
  return hash_bytes(config.canonical_text());
}

Hash128 hash_engine_options(const sim::EngineOptions& options,
                            sim::SchedulerKind resolved_scheduler) {
  Hasher h;
  h.u32(kEngineOptionsEncoding);
  h.i64(options.max_ticks);
  h.i32(options.inject_exception_at);
  h.i32(options.inject_exception_fire);
  h.str(sim::scheduler_name(resolved_scheduler));
  return h.digest();
}

Hash128 record_key(const Hash128& method_body, const Hash128& pool) {
  Hasher h;
  h.u64(method_body.hi);
  h.u64(method_body.lo);
  h.u64(pool.hi);
  h.u64(pool.lo);
  return h.digest();
}

Hash128 cell_key(const Hash128& method_body, const Hash128& pool,
                 const Hash128& config, const Hash128& engine_options,
                 sim::BranchPredictor::Scenario scenario,
                 std::uint32_t engine_fingerprint) {
  Hasher h = cell_prefix(engine_fingerprint, method_body, pool);
  add_config(h, config, engine_options);
  return finish_cell(h, scenario);
}

void cell_keys(const Hash128& method_body, const Hash128& pool,
               std::span<const Hash128> configs,
               const Hash128& engine_options,
               std::span<const sim::BranchPredictor::Scenario> scenarios,
               std::span<Hash128> out) {
  const Hasher prefix = cell_prefix(kEngineFingerprint, method_body, pool);
  std::size_t cell = 0;
  for (const Hash128& config : configs) {
    Hasher h = prefix;
    add_config(h, config, engine_options);
    for (const sim::BranchPredictor::Scenario scenario : scenarios) {
      out[cell++] = finish_cell(h, scenario);
    }
  }
}

}  // namespace javaflow::cache
