#pragma once
// Thread pool for embarrassingly-parallel trial and request scheduling.
//
// One FIFO task queue under one mutex: workers pop the oldest task, so
// tasks start in submission order. parallel_for submits one task per
// worker, and each claims the next index from a shared counter, so
// indices start in ascending order. Determinism is the caller's job:
// callers seed each index independently so the schedule never
// influences results.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qcgen {

/// Resolves a `--threads`-style request: 0 means "all hardware threads".
std::size_t resolve_thread_count(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency). A pool of one
  /// worker is valid and runs everything serially in submission order.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw; wrap fallible work and
  /// record failures out-of-band (parallel_for does this for callers).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  /// Runs body(i) for each i in [0, n) across the pool and blocks until
  /// all calls completed. Indices are claimed in ascending order, so a
  /// one-worker pool calls body(0), body(1), ... in turn. Exceptions are
  /// collected per index; after the pool drains, the one thrown by the
  /// *lowest* failing index is rethrown on the calling thread —
  /// deterministic under any worker interleaving (remaining indices
  /// still run).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> tasks_;
  std::size_t pending_ = 0;  ///< submitted but not yet finished
  bool stopping_ = false;
};

}  // namespace qcgen
