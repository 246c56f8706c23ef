// Heap-allocation budget of one eval trial. The per-trial path shares
// its immutable artifacts (gold programs, knowledge tables, ASTs an
// unchanged repair keeps, analysis reports, precomputed operand lists)
// instead of copying them, and this suite keeps it that way: it
// replaces the global operator new with a counting one and fails when a
// 1-worker RAG, three-pass matrix starts allocating noticeably more per
// trial. Built into its own binary so the replacement stays local to it;
// sanitizer builds, which interpose their own allocator, leave it out.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"

namespace {
std::atomic<std::size_t> allocations{0};

void* counted_alloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace qcgen;

namespace {

/// Runs perfbench's eval shape (RAG, three passes, one worker, eight
/// samples) over every third semantic-suite case, calling `visit` per
/// trial; returns the number of visits.
template <typename Visit>
std::size_t run_eval_shape(Visit&& visit) {
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> suite;
  for (std::size_t i = 0; i < full.size(); i += 3) suite.push_back(full[i]);
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;
  eval::RunnerOptions options;
  options.seed = 2025;
  options.threads = 1;
  std::size_t visits = 0;
  eval::run_trial_matrix(technique, suite, 8, options,
                         [&](const eval::Trial& trial) {
                           EXPECT_EQ(trial.failure, nullptr);
                           visit(visits++);
                         });
  EXPECT_EQ(visits, 8 * suite.size());
  return visits;
}

/// Allocations per trial of the eval shape. Counted between the first
/// and the last visit, so the matrix's one-off setup (corpora, indexes,
/// reference oracle) is left out and each counted stretch is exactly one
/// trial's run.
double allocations_per_trial() {
  std::size_t first = 0;
  std::size_t last = 0;
  const std::size_t visits = run_eval_shape([&](std::size_t visit) {
    last = allocations.load();
    if (visit == 0) first = last;
  });
  return static_cast<double>(last - first) /
         static_cast<double>(visits - 1);
}

/// Allocations a second matrix of the eval shape makes before its first
/// visit: its own set-up (memos, analyzer kit, oracle lookups, pool)
/// plus its first trial, once an earlier matrix in the process has
/// filled the process-wide knowledge, store and gold tables.
std::size_t second_matrix_setup_allocations() {
  run_eval_shape([](std::size_t) {});
  const std::size_t start = allocations.load();
  std::size_t before_first_visit = 0;
  run_eval_shape([&](std::size_t visit) {
    if (visit == 0) before_first_visit = allocations.load() - start;
  });
  return before_first_visit;
}

}  // namespace

TEST(AllocBudget, EvalTrialStaysUnderBudget) {
  // Measured at 217.3 per trial (GCC 12, libstdc++, Release); the trial
  // path deep-copied its artifacts at 402 before, reprinted untouched
  // gold programs and copied unedited repairs at 235.8, and built its
  // ladders' rung vectors and std::function bodies per call at 231.5.
  // The budget leaves about 10% of headroom for toolchain differences.
  constexpr double kBudget = 240.0;
  const double per_trial = allocations_per_trial();
  std::printf("allocations per trial: %.1f (budget %.0f)\n", per_trial,
              kBudget);
  EXPECT_GT(per_trial, 0.0);
  EXPECT_LT(per_trial, kBudget);
}

TEST(AllocBudget, SecondMatrixSetUpStaysUnderBudget) {
  // Measured at 893 (GCC 12, libstdc++, Release): corpora, indexes,
  // knowledge and gold references come from the process-wide tables, so
  // a later matrix rebuilds none of them. The budget leaves about 10% of
  // headroom for toolchain differences.
  constexpr std::size_t kBudget = 980;
  const std::size_t setup = second_matrix_setup_allocations();
  std::printf("allocations before the first visit: %zu (budget %zu)\n",
              setup, kBudget);
  EXPECT_GT(setup, 0u);
  EXPECT_LT(setup, kBudget);
}
