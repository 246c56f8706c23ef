// Heap-allocation budgets of one eval trial and of one analysis miss.
// The per-trial path shares its immutable artifacts (gold programs,
// knowledge tables, ASTs an unchanged repair keeps, analysis reports,
// precomputed operand lists) instead of copying them, and this suite
// keeps it that way: it replaces the global operator new with a
// counting one and fails when a 1-worker RAG, three-pass matrix starts
// allocating noticeably more per trial, or an uncached analyze more per
// program. Built into its own binary so the replacement stays local to
// it; sanitizer builds, which interpose their own allocator, leave it
// out.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "agents/semantic_agent.hpp"

#include "analyzer_corpus.hpp"

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

/// Allocations per trial of the eval shape. Counted between the first
/// and the last visit, so the matrix's one-off setup (corpora, indexes,
/// reference oracle) is left out and each counted stretch is exactly one
/// trial's run.
double allocations_per_trial() {
  std::size_t first = 0;
  std::size_t last = 0;
  const std::size_t visits =
      testing_support::run_eval_shape(2025, [&](const eval::Trial& trial) {
        last = allocations.load();
        if (trial.case_idx == 0 && trial.sample_idx == 0) first = last;
      });
  return static_cast<double>(last - first) /
         static_cast<double>(visits - 1);
}

/// Allocations a second matrix of the eval shape makes before its first
/// visit: its own set-up (memos, analyzer kit, oracle lookups, pool)
/// plus its first trial, once an earlier matrix in the process has
/// filled the process-wide knowledge, store and gold tables.
std::size_t second_matrix_setup_allocations() {
  testing_support::run_eval_shape(2025, [](const eval::Trial&) {});
  const std::size_t start = allocations.load();
  std::size_t before_first_visit = 0;
  testing_support::run_eval_shape(2025, [&](const eval::Trial& trial) {
    if (trial.case_idx == 0 && trial.sample_idx == 0) {
      before_first_visit = allocations.load() - start;
    }
  });
  return before_first_visit;
}

/// Allocations per uncached SemanticAnalyzerAgent::analyze over
/// `sources`, each analyzed once before counting so that first-use
/// set-up (registries, the language table) is left out.
double allocations_per_miss(const std::vector<std::string>& sources) {
  const agents::SemanticAnalyzerAgent analyzer;
  for (const std::string& source : sources) analyzer.analyze(source);
  const std::size_t start = allocations.load();
  for (const std::string& source : sources) analyzer.analyze(source);
  return static_cast<double>(allocations.load() - start) /
         static_cast<double>(sources.size());
}

/// The distinct final programs of the eval shape: what its analysis
/// misses are made of.
std::vector<std::string> eval_shape_programs() {
  std::set<std::string> distinct;
  testing_support::run_eval_shape(2025, [&](const eval::Trial& trial) {
    distinct.insert(trial.result->generation.source);
  });
  return {distinct.begin(), distinct.end()};
}

}  // namespace

TEST(AllocBudget, EvalTrialStaysUnderBudget) {
  // Measured at 133.6 per trial (GCC 12, libstdc++, Release); the trial
  // path deep-copied its artifacts at 402 before, reprinted untouched
  // gold programs and copied unedited repairs at 235.8, built its
  // ladders' rung vectors and std::function bodies per call at 231.5,
  // and spent 190 allocations on each analysis miss at 217.3. The budget
  // leaves about 1% of headroom for toolchain differences.
  constexpr double kBudget = 135.0;
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

TEST(AllocBudget, AnalysisMissStaysUnderBudget) {
  // Measured at 84.1 per miss on the eval shape's programs and 39.9 on
  // the analyzer corpus (GCC 12, libstdc++, Release); 189.9 and 92.5
  // when the lexer grew its token vector per parse, the fact tables held
  // a vector per qubit and clbit timeline and the passes built ordered
  // sets and maps. What is left is mostly the AST's and the lowered
  // circuit's own vectors and expression nodes.
  constexpr double kBudget = 90.0;
  const double generated = allocations_per_miss(eval_shape_programs());
  const double corpus =
      allocations_per_miss(testing_support::golden_sources());
  std::printf("allocations per analysis miss: %.1f on generated programs, "
              "%.1f on the analyzer corpus (budget %.0f)\n",
              generated, corpus, kBudget);
  EXPECT_GT(generated, 0.0);
  EXPECT_GT(corpus, 0.0);
  EXPECT_LT(generated, kBudget);
  EXPECT_LT(corpus, kBudget);
}
