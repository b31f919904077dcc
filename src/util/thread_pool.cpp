#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace javaflow::util {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? hardware_threads() : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, unsigned)>& body) {
  if (n == 0) return;
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(size(), n));
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  unsigned done = 0;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    submit([&, lane] {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        body(i, lane);
      }
      {
        // Notify while holding the lock: done_cv and done_mu live on the
        // caller's stack, and the waiter destroys them as soon as it
        // observes done == lanes. Signaling after unlock would race that
        // destruction.
        std::lock_guard<std::mutex> lock(done_mu);
        ++done;
        done_cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == lanes; });
}

unsigned ThreadPool::hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ThreadPool::resolve(int requested) noexcept {
  return requested >= 1 ? static_cast<unsigned>(requested)
                        : hardware_threads();
}

unsigned ThreadPool::resolve_clamped(int requested) noexcept {
  const unsigned n = resolve(requested);
  const unsigned hw = hardware_threads();
  if (n <= hw) return n;
  std::fprintf(stderr,
               "warning: clamping %u requested worker threads to the %u "
               "hardware thread(s) on this host\n",
               n, hw);
  return hw;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace javaflow::util
