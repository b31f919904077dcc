// Shared seeded-RNG utilities: every reproducible random stream in the
// tree derives from one explicit 64-bit seed through this header.
//
// Two engines live here:
//
//   * SplitMix64 — the canonical splitmix64 mixer (Steele, Lea &
//     Flood, "Fast splittable pseudorandom number generators"). Its
//     output is a pure function of the seed and the draw index — no
//     distribution objects, no libstdc++ internals — so streams are
//     bit-identical across compilers, standard libraries, and thread
//     counts. All NEW consumers (the serving request stream, future
//     samplers) use this engine.
//
//   * RandomSource<std::mt19937_64> — the corpus generator's historical
//     engine behind the same helper vocabulary. The generator's
//     mt19937_64 streams are load-bearing: bench/reference_stride32.jfs
//     and the corpus distribution tests pin the exact methods the
//     historical draws produce, so the generator keeps its engine and
//     only the helper methods (below / chance / uniform01 / pick) moved
//     here. Do not switch the generator to SplitMix64 without
//     regenerating every golden artifact.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace javaflow::util {

// One splitmix64 step: advances `state` by the golden-gamma increment
// and returns the mixed output.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Deterministic splittable generator. Satisfies
// std::uniform_random_bit_generator, but the helpers below avoid
// std::*_distribution on purpose — their draw sequences are
// implementation-defined, and serving reports must be bit-identical
// everywhere.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept
      : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  constexpr result_type operator()() noexcept {
    return splitmix64_next(state_);
  }

  // Uniform integer in [0, n) by 64x64 fixed-point scaling (Lemire,
  // without the rejection step — the bias is < 2^-32 for any n the
  // simulator draws, and determinism beats exactness here).
  constexpr std::uint64_t below(std::uint64_t n) noexcept {
    const std::uint64_t x = (*this)();
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * n) >> 64);
  }

  // Uniform double in [0, 1): top 53 bits of one draw.
  constexpr double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  constexpr bool chance(double p) noexcept { return uniform01() < p; }

 private:
  std::uint64_t state_;
};

// The seeded-draw vocabulary shared by the corpus generator
// (Engine = std::mt19937_64 — golden streams, see the header comment)
// and anything else that carries its own engine type.
template <class Engine>
class RandomSource {
 public:
  explicit RandomSource(std::uint64_t seed) : rng_(seed) {}

  Engine& engine() noexcept { return rng_; }

  // Modulo draw, exactly the corpus generator's historical `rnd()`
  // expression (uint32 truncation of n included).
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint32_t>(n));
  }

  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  }

  bool chance(double p) { return uniform01() < p; }

  int pick(const std::vector<int>& v) {
    return v[static_cast<std::size_t>(below(static_cast<int>(v.size())))];
  }

 private:
  Engine rng_;
};

}  // namespace javaflow::util
