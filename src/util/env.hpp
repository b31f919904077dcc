// Hardened number parsing for the bench/sweep env knobs and the tools'
// command-line flags.
//
// The previous `atoi` parsing silently turned garbage like
// `JAVAFLOW_THREADS=abc` into 0 (= "one worker per hardware thread"),
// which is exactly the wrong failure mode for a reproducibility knob.
// These helpers accept only a complete decimal integer within bounds. The
// env helpers otherwise warn once on stderr and fall back to the
// documented default; the tools print their usage and exit.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

namespace javaflow::util {

// Strict decimal parse: the whole string must be one integer (optional
// leading +/-, no trailing text, no overflow) within [lo, hi]. nullopt
// otherwise. Every numeric env knob and CLI flag but `--seed`
// (parse_u64) goes through it.
inline std::optional<long> parse_long(
    const char* text, long lo = std::numeric_limits<long>::min(),
    long hi = std::numeric_limits<long>::max()) noexcept {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return std::nullopt;
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

// Strict unsigned 64-bit decimal parse: digits only (no sign, no
// whitespace, which strtoull would accept and negate or skip), no
// overflow. nullopt otherwise.
inline std::optional<std::uint64_t> parse_u64(const char* text) noexcept {
  if (text == nullptr || *text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return v;
}

// Reads an integer environment variable. Unset -> fallback, silently.
// Set but malformed or below min_ok -> fallback, with a stderr warning
// naming the variable and the accepted range.
inline long env_int(const char* name, long fallback, long min_ok) noexcept {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const std::optional<long> v = parse_long(text, min_ok);
  if (!v.has_value()) {
    std::fprintf(stderr,
                 "warning: ignoring %s=\"%s\" (expected an integer >= %ld); "
                 "using %ld\n",
                 name, text, min_ok, fallback);
    return fallback;
  }
  return *v;
}

// Reads a free-form string variable. Unset (or set empty) -> fallback.
// No validation beyond non-emptiness: callers that accept only an
// enumerated set (e.g. JAVAFLOW_CACHE) parse and warn themselves.
inline std::string_view env_string(const char* name,
                                   std::string_view fallback) noexcept {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  return text;
}

}  // namespace javaflow::util
