#include "cache/key.hpp"

namespace javaflow::cache {

namespace {

// Canonical-encoding version tags. Bump a tag when the corresponding
// serialization below changes shape, so old digests can never alias new
// ones even by accident.
constexpr std::uint32_t kMethodEncoding = 1;
constexpr std::uint32_t kPoolEncoding = 1;
constexpr std::uint32_t kEngineOptionsEncoding = 1;

void append_instruction(Hasher& h, const bytecode::Instruction& inst) {
  h.u8(static_cast<std::uint8_t>(inst.op));
  h.i32(inst.operand);
  h.i32(inst.operand2);
  h.i32(inst.target);
  h.u8(inst.pop);
  h.u8(inst.push);
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

Hash128 hash_method_body(const bytecode::Method& m) {
  Hasher h;
  h.u32(kMethodEncoding);
  h.u32(m.max_locals);
  h.u32(m.max_stack);
  h.u8(m.num_args);
  h.u8(static_cast<std::uint8_t>(m.return_type));
  h.boolean(m.is_static);
  h.u64(m.arg_types.size());
  for (const bytecode::ValueType t : m.arg_types) {
    h.u8(static_cast<std::uint8_t>(t));
  }
  h.u64(m.code.size());
  for (const bytecode::Instruction& inst : m.code) {
    append_instruction(h, inst);
  }
  h.u64(m.switches.size());
  for (const bytecode::SwitchTable& sw : m.switches) {
    h.u64(sw.keys.size());
    for (const std::int32_t k : sw.keys) h.i32(k);
    h.u64(sw.targets.size());
    for (const std::int32_t t : sw.targets) h.i32(t);
    h.i32(sw.default_target);
  }
  return h.digest();
}

Hash128 hash_pool(const bytecode::ConstantPool& pool) {
  Hasher h;
  h.u32(kPoolEncoding);
  h.u64(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const bytecode::CpEntry& e = pool.at(static_cast<std::int32_t>(i));
    // Every payload field is hashed regardless of kind: unused payloads
    // are default-initialized, so the encoding stays unambiguous without
    // per-kind branching.
    h.u8(static_cast<std::uint8_t>(e.kind));
    h.i64(e.i);
    h.f64(e.d);
    h.str(e.s);
    h.str(e.field.class_name);
    h.str(e.field.field_name);
    h.u8(static_cast<std::uint8_t>(e.field.type));
    h.boolean(e.field.is_static);
    h.i32(e.field.resolved_slot);
    h.str(e.method.qualified_name);
    h.u8(e.method.arg_values);
    h.u8(static_cast<std::uint8_t>(e.method.return_type));
    h.str(e.cls.class_name);
    h.i32(e.cls.dims);
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
