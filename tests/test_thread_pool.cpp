// Tests for the trial scheduler's thread pool (common/thread_pool.hpp).

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qcgen {
namespace {

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_thread_count(0), 1u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SingleWorkerPoolIsValid) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&counter](std::size_t) {
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, OneWorkerRunsSubmittedTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 272; ++i) {
    pool.submit([&order, i] {
      // Short enough to queue many, long enough that the queue fills.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      order.push_back(i);
    });
  }
  pool.wait_idle();
  std::vector<int> expected(272);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, OneWorkerParallelForCallsIndicesInAscendingOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(272, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(272);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ParallelForStartsIndicesInAscendingOrder) {
  // Workers claim indices from one counter, so even at 8 workers the
  // calls *start* in index order (they may finish in any order).
  ThreadPool pool(8);
  std::mutex mutex;
  std::vector<std::size_t> started;
  pool.parallel_for(1000, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      started.push_back(i);
    }
    if (i % 7 == 0) std::this_thread::yield();
  });
  ASSERT_EQ(started.size(), 1000u);
  // Claim and record are not one atomic step, so a worker that claimed
  // index i may record it after a later claim; it can trail by at most
  // the number of workers.
  for (std::size_t k = 0; k < started.size(); ++k) {
    EXPECT_LT(started[k], k + 8) << "position " << k;
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, UnevenTaskCostsStillComplete) {
  // Mimics the eval workload: most trials are cheap, a few are long
  // (multi-pass repair); every index must still be covered.
  ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  pool.parallel_for(64, [&done](std::size_t i) {
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64u);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<std::size_t> completed{0};
  EXPECT_THROW(
      pool.parallel_for(32,
                        [&completed](std::size_t i) {
                          if (i == 7) throw std::runtime_error("trial 7 died");
                          completed.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // Remaining indices still ran: the pool is reusable after a failure.
  EXPECT_EQ(completed.load(), 31u);
  std::atomic<std::size_t> again{0};
  pool.parallel_for(8, [&again](std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 8u);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexDeterministically) {
  // Multiple indices fail on every run; the surfaced exception must be
  // the lowest-index one regardless of which worker lost the race. The
  // later index is made fast (more likely to land first in a racy
  // first-wins implementation) to give a regression a chance to show.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 60) throw std::runtime_error("index 60");
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          throw std::runtime_error("index 3");
        }
      });
      FAIL() << "parallel_for did not throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 3") << "round " << round;
    }
  }
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ManySmallBatchesReuseThePool) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(10, [&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    total += count.load();
  }
  EXPECT_EQ(total, 200u);
}

TEST(ThreadPool, OversubscribedPoolMatchesSerialSum) {
  // More workers than hardware threads (nproc may be 1 in CI): results
  // must not depend on the scheduling interleaving.
  ThreadPool pool(8);
  std::vector<std::size_t> out(257, 0);
  pool.parallel_for(out.size(), [&out](std::size_t i) { out[i] = i * i; });
  std::size_t sum = std::accumulate(out.begin(), out.end(), std::size_t{0});
  std::size_t expect = 0;
  for (std::size_t i = 0; i < out.size(); ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

}  // namespace
}  // namespace qcgen
