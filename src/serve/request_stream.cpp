#include "serve/request_stream.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace javaflow::serve {

std::vector<Request> make_request_stream(std::int32_t num_methods,
                                         const RequestStreamOptions& options) {
  if (options.mean_gap_ticks < 1 || options.mean_gap_ticks > kMaxMeanGapTicks) {
    throw std::invalid_argument(
        "make_request_stream: mean gap " +
        std::to_string(options.mean_gap_ticks) + " is outside [1, " +
        std::to_string(kMaxMeanGapTicks) + "] ticks");
  }
  util::SplitMix64 rng(options.seed);
  const std::int32_t n = std::max(num_methods, 1);
  const std::int32_t hot = std::min(std::max(options.hot_methods, 1), n);
  const std::int64_t gap_span = 2 * options.mean_gap_ticks - 1;

  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(std::max(options.num_requests, 0)));
  std::int64_t tick = 0;
  for (std::int32_t i = 0; i < options.num_requests; ++i) {
    // Draw order is part of the stream definition: gap, hot/cold, index,
    // scenario — changing it changes every downstream digest.
    if (i > 0) tick += 1 + static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(gap_span)));
    const bool is_hot =
        rng.below(256) < static_cast<std::uint64_t>(options.hot_fraction_256);
    const std::int32_t idx = static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(is_hot ? hot : n)));
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
