#include "serve/request_stream.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace javaflow::serve {

namespace {

// Throws std::invalid_argument naming `what` unless lo <= value <= hi.
void require_range(const char* what, std::int64_t value, std::int64_t lo,
                   std::int64_t hi) {
  if (value >= lo && value <= hi) return;
  throw std::invalid_argument("make_request_stream: " + std::string(what) +
                              " " + std::to_string(value) +
                              " is outside [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]");
}

}  // namespace

std::vector<Request> make_request_stream(std::int32_t num_methods,
                                         const RequestStreamOptions& options) {
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  require_range("method count", num_methods, 1, kMax32);
  require_range("request count", options.num_requests, 0, kMax32);
  require_range("mean gap", options.mean_gap_ticks, 1, kMaxMeanGapTicks);
  require_range("hot fraction", options.hot_fraction_256, 0, 256);
  require_range("hot method count", options.hot_methods, 1, kMax32);
  util::SplitMix64 rng(options.seed);
  const std::int32_t hot = std::min(options.hot_methods, num_methods);
  const std::int64_t gap_span = 2 * options.mean_gap_ticks - 1;

  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(options.num_requests));
  std::int64_t tick = 0;
  for (std::int32_t i = 0; i < options.num_requests; ++i) {
    // Draw order is part of the stream definition: gap, hot/cold, index,
    // scenario — changing it changes every downstream digest.
    if (i > 0) tick += 1 + static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(gap_span)));
    const bool is_hot =
        rng.below(256) < static_cast<std::uint64_t>(options.hot_fraction_256);
    const std::int32_t idx = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(is_hot ? hot : num_methods)));
    const auto scenario = rng.below(2) == 0
                              ? sim::BranchPredictor::Scenario::BP1
                              : sim::BranchPredictor::Scenario::BP2;
    Request r;
    r.id = i;
    r.method_index = idx;
    r.arrival_tick = tick;
    r.scenario = scenario;
    out.push_back(r);
  }
  return out;
}

}  // namespace javaflow::serve
