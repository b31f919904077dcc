// A one-shot parallel loop for embarrassingly parallel sweeps.
//
// `parallel_for` starts its lanes for one call and joins them before it
// returns: lane 0 is the calling thread, the others are std::jthreads.
// It is deliberately work-stealing-free: every lane drains the next
// unclaimed index from one atomic counter. Lanes are stable identifiers
// in [0, lanes), which lets callers keep per-lane scratch state
// (engines, arenas) alive across items without locking.
//
// The body must not throw on lanes 1 and up: an exception escaping a
// std::jthread terminates the process (there is no cross-thread
// exception channel). The simulator's hot paths are noexcept in
// practice; keep it that way. An exception on lane 0 reaches the caller
// after the other lanes have finished their current index and joined.
#pragma once

#include <cstddef>
#include <functional>

namespace javaflow::util {

// Runs body(index, lane) for every index in [0, n) on min(lanes, n)
// lanes and returns when all are done. With one lane (lanes <= 1 or
// n <= 1) the body runs inline on the calling thread and no thread
// starts.
void parallel_for(
    unsigned lanes, std::size_t n,
    const std::function<void(std::size_t index, unsigned lane)>& body);

// max(1, std::thread::hardware_concurrency()).
unsigned hardware_threads() noexcept;

// Maps a user-facing thread request to a lane count: values >= 1 are
// taken literally, anything else (0 = "auto") resolves to
// hardware_threads().
unsigned resolve(int requested) noexcept;

// resolve(), then clamp to hardware_threads() with a one-line stderr
// warning when the request exceeds it. For callers that report
// timings: oversubscribing a sweep never changes its output (it is
// deterministic by construction) but it misreports the machine — one
// BENCH_sweep.json recorded a 0.97x "speedup" from 4 workers on a
// 1-hardware-thread host. The library itself takes counts as given.
unsigned resolve_clamped(int requested) noexcept;

}  // namespace javaflow::util
