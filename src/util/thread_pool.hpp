// A small fixed-size worker pool for embarrassingly parallel sweeps.
//
// The pool is deliberately work-stealing-free: `parallel_for` hands out
// indices from a single atomic counter, so each worker ("lane") drains
// the next unclaimed index. Lanes are stable identifiers in
// [0, size()), which lets callers keep per-lane scratch state (engines,
// arenas) alive across items without locking.
//
// Tasks must not throw: an exception escaping a worker terminates the
// process (there is no cross-thread exception channel). The simulator's
// hot paths are noexcept in practice; keep it that way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace javaflow::util {

class ThreadPool {
 public:
  // threads == 0 picks one worker per hardware thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // Enqueues one task. Returns immediately.
  void submit(std::function<void()> task);

  // Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  // Runs body(index, lane) for every index in [0, n), distributing
  // indices dynamically over min(size(), n) lanes, and blocks until all
  // are done. With n <= 1 or size() <= 1 the body runs inline on the
  // calling thread (lane 0) — no handoff, no synchronization.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t index,
                                             unsigned lane)>& body);

  // max(1, std::thread::hardware_concurrency()).
  static unsigned hardware_threads() noexcept;

  // Maps a user-facing thread request to a worker count: values >= 1
  // are taken literally, anything else (0 = "auto") resolves to
  // hardware_threads().
  static unsigned resolve(int requested) noexcept;

  // resolve(), then clamp to hardware_threads() with a one-line stderr
  // warning when the request exceeds it. For callers that report
  // timings: oversubscribing a sweep never changes its output (it is
  // deterministic by construction) but it misreports the machine — one
  // BENCH_sweep.json recorded a 0.97x "speedup" from 4 workers on a
  // 1-hardware-thread host. The library itself takes counts as given.
  static unsigned resolve_clamped(int requested) noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace javaflow::util
