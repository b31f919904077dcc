#include "util/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

namespace javaflow::util {

void parallel_for(unsigned lanes, std::size_t n,
                  const std::function<void(std::size_t, unsigned)>& body) {
  std::atomic<std::size_t> next{0};
  const auto drain = [&](unsigned lane) {
    for (std::size_t i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      body(i, lane);
    }
  };
  // Declared after `next` and `drain`, so the lanes join before either
  // is destroyed, on the exception path too.
  std::vector<std::jthread> others;
  const std::size_t used = std::min<std::size_t>(lanes, n);
  for (unsigned lane = 1; lane < used; ++lane) {
    others.emplace_back(drain, lane);
  }
  try {
    drain(0);
  } catch (...) {
    // The other lanes stop after their current index.
    next.store(n, std::memory_order_relaxed);
    throw;
  }
}

unsigned hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned resolve(int requested) noexcept {
  return requested >= 1 ? static_cast<unsigned>(requested)
                        : hardware_threads();
}

unsigned resolve_clamped(int requested) noexcept {
  const unsigned n = resolve(requested);
  const unsigned hw = hardware_threads();
  if (n <= hw) return n;
  std::fprintf(stderr,
               "warning: clamping %u requested worker threads to the %u "
               "hardware thread(s) on this host\n",
               n, hw);
  return hw;
}

}  // namespace javaflow::util
