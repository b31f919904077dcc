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

// Every field has a range; make_request_stream() throws outside it.
struct RequestStreamOptions {
  std::uint64_t seed = 1;  // any value
  std::int32_t num_requests = 64;  // >= 0; 0 is an empty stream
  // Mean inter-arrival gap in fabric ticks, in [1, kMaxMeanGapTicks];
  // actual gaps are uniform in [1, 2*mean_gap_ticks - 1] (first request
  // arrives at tick 0).
  std::int64_t mean_gap_ticks = 64;
  // Fraction of requests directed at the hot set, in 1/256ths (integer
  // so the stream definition involves no floating point), in [0, 256]:
  // 0 = none, 128 = half, 256 = all.
  std::int32_t hot_fraction_256 = 128;
  // >= 1; the hot set is the first min(hot_methods, num_methods) methods.
  std::int32_t hot_methods = 4;
};

// Generates the stream over a corpus of `num_methods` methods, sorted
// by (arrival_tick, id). Throws std::invalid_argument, naming the value,
// when num_methods < 1 or any option is outside the range its field
// states: num_requests < 0, mean_gap_ticks outside
// [1, kMaxMeanGapTicks], hot_fraction_256 outside [0, 256] or
// hot_methods < 1.
std::vector<Request> make_request_stream(std::int32_t num_methods,
                                         const RequestStreamOptions& options);

}  // namespace javaflow::serve
