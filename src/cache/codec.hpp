// Fixed-width little-endian codec shared by the result cache's .jfc
// records (cache/record.cpp) and the attribution snapshots' .jfs files
// (obs/snapshot.cpp).
//
// Every integer is encoded at fixed width, independent of the host, so a
// cache or snapshot directory survives a toolchain or host change (it
// still will not survive a format-version or fingerprint bump — by
// design). Header-only, like cache/hash.hpp: obs uses it without linking
// the cache library, which layers above obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cache/hash.hpp"

namespace javaflow::cache {

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i32(std::int32_t v) { fixed(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

 private:
  template <typename T>
  void fixed(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string& out_;
};

// Bounds-checked cursor: every read can fail, and the first failure
// poisons the reader so callers can check once at the end of a section.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(fixed<1>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed<4>()); }
  std::uint64_t u64() { return fixed<8>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

 private:
  template <std::size_t N>
  std::uint64_t fixed() {
    if (!ok_ || bytes_.size() - pos_ < N) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += N;
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The .jfs snapshot trailer: FNV-1a 64 (Hasher's first lane) over every
// byte before it. bench/reference_stride32.jfs pins these bytes. The .jfc
// record trailer is a word digest instead (cache/record.cpp).
inline std::uint64_t checksum(std::string_view bytes) noexcept {
  return hash_bytes(bytes).hi;
}

}  // namespace javaflow::cache
