// Streaming FNV-1a hashing for the content-addressed result cache
// (docs/PERF.md "Result cache").
//
// Two independent 64-bit FNV-1a streams over the same byte sequence give
// a 128-bit digest: cheap, dependency-free, and stable across runs,
// hosts, and compilers — exactly what a persistent cache key needs.
// This is an integrity/addressing hash, not a cryptographic one; cache
// directories are private per user and a collision needs ~2^64 distinct
// keys before it becomes likely.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace javaflow::cache {

// 128-bit digest. Ordered so digests can key std::map and name files.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;
  auto operator<=>(const Hash128&) const = default;
};

// Lower-case 32-hex-digit spelling (file names, CLI output).
std::string to_hex(const Hash128& h);
// The same 32 digits written to out[0..31], with no terminator.
void to_hex(const Hash128& h, char* out) noexcept;

class Hasher {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  // Second stream: same prime, different basis, so the two lanes walk
  // independent orbits over identical input bytes.
  static constexpr std::uint64_t kOffsetBasis2 =
      kOffsetBasis ^ 0x9e3779b97f4a7c15ULL;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      a_ = (a_ ^ b[i]) * kPrime;
      b_ = (b_ ^ b[i]) * kPrime;
    }
  }

  void u8(std::uint8_t v) noexcept { bytes(&v, 1); }
  void u32(std::uint32_t v) noexcept { fixed(v); }
  void u64(std::uint64_t v) noexcept { fixed(v); }
  void i32(std::int32_t v) noexcept { fixed(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) noexcept { fixed(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { fixed(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) noexcept { u8(v ? 1 : 0); }
  // Length-prefixed so "ab" + "c" never collides with "a" + "bc".
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  Hash128 digest() const noexcept { return {a_, b_}; }

 private:
  // Fixed-width little-endian encoding, independent of host endianness.
  template <typename T>
  void fixed(T v) noexcept {
    unsigned char buf[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    bytes(buf, sizeof(T));
  }

  std::uint64_t a_ = kOffsetBasis;
  std::uint64_t b_ = kOffsetBasis2;
};

// One-shot convenience over a byte string.
inline Hash128 hash_bytes(std::string_view s) noexcept {
  Hasher h;
  h.bytes(s.data(), s.size());
  return h.digest();
}

}  // namespace javaflow::cache
