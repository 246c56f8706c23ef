#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace qcgen {

std::size_t resolve_thread_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_thread_count(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  require(static_cast<bool>(task), "ThreadPool::submit: empty task");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    require(!stopping_, "ThreadPool::submit after shutdown");
    ++pending_;
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  // Worker tag index+1 leaves 0 for the main thread, so Chrome trace
  // exports separate the scheduler lanes from top-level bench work.
  trace::set_thread_tag(static_cast<std::uint32_t>(index) + 1);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
    // Destroy the task (and anything it captured) BEFORE signalling
    // completion: wait_idle callers may use state the task owned the
    // moment it returns.
    task = nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) idle_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // One task per worker, each claiming the next index until none is
  // left. Failures are kept out-of-band; every index still runs, and the
  // lowest failing index's exception is the one rethrown on the caller —
  // deterministic no matter which worker's failure landed first. The
  // tasks capture locals by reference: wait_idle returns only after
  // every task has finished.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t failed_index = n;
  std::exception_ptr error;
  const std::size_t tasks = std::min(n, size());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < failed_index) {
            failed_index = i;
            error = std::current_exception();
          }
        }
      }
    });
  }
  wait_idle();
  if (error) std::rethrow_exception(error);
}

}  // namespace qcgen
