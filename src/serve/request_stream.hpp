// Deterministic seeded request stream for the serving frontend
// (docs/SERVING.md "Request model").
//
// A stream is a pure function of (seed, options, num_methods): arrivals
// are spaced by integer gaps drawn uniformly around `mean_gap_ticks`, a
// configurable fraction of requests hits a small hot set (the first
// `hot_methods` entries — in the corpus those are the hand-written
// kernels), and each request independently draws a branch scenario.
// Every draw comes from one util::SplitMix64 sequence, so the stream is
// bit-identical across platforms and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/branch_predictor.hpp"

namespace javaflow::serve {

struct Request {
  std::int64_t id = 0;            // position in the stream (0-based)
  std::int32_t method_index = 0;  // into the serving corpus method list
  std::int64_t arrival_tick = 0;  // fabric tick the request arrives at
  sim::BranchPredictor::Scenario scenario =
      sim::BranchPredictor::Scenario::BP1;
};

// Largest accepted mean inter-arrival gap. At this bound a stream of
// 2^31 - 1 requests ends below 2^62 ticks, so no gap or arrival tick
// overflows int64.
inline constexpr std::int64_t kMaxMeanGapTicks = 1'000'000'000;

struct RequestStreamOptions {
  std::uint64_t seed = 1;
  std::int32_t num_requests = 64;
  // Mean inter-arrival gap in fabric ticks, in [1, kMaxMeanGapTicks];
  // actual gaps are uniform in [1, 2*mean_gap_ticks - 1] (first request
  // arrives at tick 0).
  std::int64_t mean_gap_ticks = 64;
  // Fraction of requests directed at the hot set, in 1/256ths (integer
  // so the stream definition involves no floating point): 128 = half.
  std::int32_t hot_fraction_256 = 128;
  std::int32_t hot_methods = 4;  // hot set = first min(hot, n) methods
};

// Generates the stream over a corpus of `num_methods` methods, sorted
// by (arrival_tick, id). num_methods must be >= 1. Throws
// std::invalid_argument when mean_gap_ticks is outside
// [1, kMaxMeanGapTicks].
std::vector<Request> make_request_stream(std::int32_t num_methods,
                                         const RequestStreamOptions& options);

}  // namespace javaflow::serve
