// Hashing for the content-addressed result cache (docs/PERF.md "Result
// cache"). Two hashers, each with its own jobs:
//
//   * Hasher: two 64-bit FNV-1a streams, one byte per step. It makes
//     every digest a committed reference pins (the serve report digest,
//     the .jfs trailer, the golden test digests) and the key derivation
//     over digests (cell and record keys, config and engine-options
//     digests), whose inputs are short.
//   * WordHasher: two 64-bit lanes, one 8-byte word per step. It makes
//     the digests whose input is bulk: method bodies, the constant pool
//     and the .jfc record trailer, which a warm sweep recomputes for
//     every record it reads.
//
// Both give 128-bit digests that are stable across runs, hosts and
// compilers, which is what a persistent cache key needs. They are
// integrity/addressing hashes, not cryptographic ones; cache directories
// are private per user and a collision needs ~2^64 distinct keys before
// it becomes likely.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

// One-shot FNV-1a digest of a byte string.
inline Hash128 hash_bytes(std::string_view s) noexcept {
  Hasher h;
  h.bytes(s.data(), s.size());
  return h.digest();
}

// Word hashing. Each step mixes one 64-bit word into both lanes with an
// xxHash64-style round, lane = rotl(lane + word * odd, r) * odd', each
// lane with its own seed, rotation and final multiplier. For a fixed
// word the round is a bijection of the lane, and distinct words add
// distinct products, so two inputs of one length that differ in a single
// word always end in different lanes: the guarantee FNV-1a's byte step
// gives per byte. Only the add, rotate and multiply are on a lane's
// dependency chain. Byte runs are read as little-endian words whatever
// the host's byte order, as the codec writes them, and a run's last word
// is zero-padded. The digest folds in the number of bytes consumed and
// ends each lane with an avalanche; the first lane (`hi`) alone is the
// .jfc record trailer.
class WordHasher {
 public:
  void word(std::uint64_t w) noexcept {
    step(a_, b_, w);
    length_ += 8;
  }

  // `n` bytes as little-endian words, the last one zero-padded.
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    // Local lanes: `data` may alias this object, so members would be
    // reloaded and stored on every step.
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) step(a, b, load_le(p + i));
    if (i < n) {
      std::uint64_t w = 0;
      for (std::size_t k = 0; i + k < n; ++k) {
        w |= static_cast<std::uint64_t>(p[i + k]) << (8 * k);
      }
      step(a, b, w);
    }
    a_ = a;
    b_ = b;
    length_ += n;
  }

  // Length-prefixed so "ab" + "c" never collides with "a" + "bc".
  void str(std::string_view s) noexcept {
    word(s.size());
    bytes(s.data(), s.size());
  }

  Hash128 digest() const noexcept {
    std::uint64_t a = a_;
    std::uint64_t b = b_;
    step(a, b, length_);
    return {avalanche(a), avalanche(b)};
  }

 private:
  static constexpr std::uint64_t kSeedA = 0x243f6a8885a308d3ULL;
  static constexpr std::uint64_t kSeedB = 0x13198a2e03707344ULL;
  static constexpr std::uint64_t kMulWord = 0xc2b2ae3d27d4eb4fULL;
  static constexpr std::uint64_t kMulA = 0x9e3779b185ebca87ULL;
  static constexpr std::uint64_t kMulB = 0x9e3779b97f4a7c15ULL;

  static void step(std::uint64_t& a, std::uint64_t& b,
                   std::uint64_t w) noexcept {
    const std::uint64_t m = w * kMulWord;
    a = std::rotl(a + m, 31) * kMulA;
    b = std::rotl(b + m, 27) * kMulB;
  }

  // MurmurHash3's 64-bit finalizer, a bijection.
  static std::uint64_t avalanche(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  static std::uint64_t load_le(const unsigned char* p) noexcept {
    std::uint64_t w;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&w, p, sizeof w);
    } else {
      w = 0;
      for (std::size_t k = 0; k < 8; ++k) {
        w |= static_cast<std::uint64_t>(p[k]) << (8 * k);
      }
    }
    return w;
  }

  std::uint64_t a_ = kSeedA;
  std::uint64_t b_ = kSeedB;
  std::uint64_t length_ = 0;
};

// One-shot word digest of a byte string.
inline Hash128 hash_words(std::string_view s) noexcept {
  WordHasher h;
  h.bytes(s.data(), s.size());
  return h.digest();
}

}  // namespace javaflow::cache
