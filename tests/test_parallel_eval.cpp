// Determinism tests for the parallel evaluation engine (eval/parallel.hpp,
// eval/runner.hpp): the same experiment must produce bit-identical
// reports at any thread count, because every (case, sample) trial draws
// from an independent RNG stream.

#include "eval/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/trace.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"

namespace qcgen::eval {
namespace {

std::vector<TestCase> small_suite() {
  const auto full = semantic_suite();
  // A subsample keeps the matrix cheap while still crossing algorithm
  // tiers (every third case).
  std::vector<TestCase> cases;
  for (std::size_t i = 0; i < full.size(); i += 3) cases.push_back(full[i]);
  return cases;
}

TEST(TrialSeed, StreamsAreDistinctAcrossTheMatrix) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t c = 0; c < 64; ++c) {
    for (std::uint64_t s = 0; s < 64; ++s) {
      seen.insert(trial_seed(2025, c, s));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(TrialSeed, DependsOnEveryInput) {
  const std::uint64_t base = trial_seed(1, 2, 3);
  EXPECT_NE(base, trial_seed(2, 2, 3));
  EXPECT_NE(base, trial_seed(1, 3, 3));
  EXPECT_NE(base, trial_seed(1, 2, 4));
  // (case, sample) must not be interchangeable.
  EXPECT_NE(trial_seed(1, 2, 3), trial_seed(1, 3, 2));
}

TEST(RunTrialMatrix, ResultsComeBackInRowMajorOrder) {
  const auto suite = small_suite();
  RunnerOptions options;
  options.seed = 11;
  options.threads = 2;
  const auto trials = run_trial_matrix(
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B),
      suite, 2, options).trials;
  ASSERT_EQ(trials.size(), suite.size() * 2);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].case_idx, i / 2);
    EXPECT_EQ(trials[i].sample_idx, i % 2);
  }
}

TEST(RunTrialMatrix, BitIdenticalAcrossThreadCounts) {
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::with_multipass(llm::ModelProfile::kStarCoder3B, 3);

  RunnerOptions serial;
  serial.seed = 2025;
  serial.threads = 1;
  RunnerOptions wide = serial;
  wide.threads = 8;

  const auto a = run_trial_matrix(technique, suite, 3, serial).trials;
  const auto b = run_trial_matrix(technique, suite, 3, wide).trials;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].case_idx, b[i].case_idx);
    EXPECT_EQ(a[i].sample_idx, b[i].sample_idx);
    EXPECT_EQ(a[i].pipeline.syntactic_ok, b[i].pipeline.syntactic_ok)
        << "trial " << i;
    EXPECT_EQ(a[i].pipeline.semantic_ok, b[i].pipeline.semantic_ok)
        << "trial " << i;
    EXPECT_EQ(a[i].pipeline.passes_used, b[i].pipeline.passes_used)
        << "trial " << i;
    EXPECT_EQ(a[i].pipeline.generation.source,
              b[i].pipeline.generation.source)
        << "trial " << i;
  }
}

TEST(EvaluateTechnique, ReportIdenticalAtAnyThreadCount) {
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::with_scot(llm::ModelProfile::kStarCoder3B);

  RunnerOptions serial;
  serial.samples_per_case = 3;
  serial.seed = 42;
  serial.threads = 1;
  RunnerOptions wide = serial;
  wide.threads = 8;

  const AccuracyReport a = evaluate_technique(technique, suite, serial);
  const AccuracyReport b = evaluate_technique(technique, suite, wide);
  EXPECT_EQ(a.syntactic_rate, b.syntactic_rate);
  EXPECT_EQ(a.semantic_rate, b.semantic_rate);
  EXPECT_EQ(a.mean_passes_used, b.mean_passes_used);
  EXPECT_EQ(a.semantic_ci.lo, b.semantic_ci.lo);
  EXPECT_EQ(a.semantic_ci.hi, b.semantic_ci.hi);
  EXPECT_EQ(a.semantic_by_tier, b.semantic_by_tier);
}

TEST(EvaluateTechnique, TraceSummaryIdenticalAtAnyThreadCount) {
  // The deterministic trace summary — span counts, counters, histogram
  // aggregates — must be bit-identical at --threads 1 vs 8: per-trial
  // sinks merge in trial index order, never in completion order.
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::with_multipass(llm::ModelProfile::kStarCoder3B, 3);

  RunnerOptions serial;
  serial.samples_per_case = 2;
  serial.seed = 2025;
  serial.threads = 1;
  trace::TraceSink serial_sink;
  serial.trace = &serial_sink;

  RunnerOptions wide = serial;
  wide.threads = 8;
  trace::TraceSink wide_sink;
  wide.trace = &wide_sink;

  const AccuracyReport a = evaluate_technique(technique, suite, serial);
  const AccuracyReport b = evaluate_technique(technique, suite, wide);

  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(serial_sink.summary(), wide_sink.summary());
  // Serialized form too: the bench harness compares reports as JSON.
  EXPECT_EQ(serial_sink.summary_json().dump(), wide_sink.summary_json().dump());
#if QCGEN_TRACE_ENABLED
  // The pipeline instrumentation actually fired (one run span per
  // trial); under -DQCGEN_TRACE=OFF the summaries are empty by design.
  EXPECT_FALSE(a.trace.empty());
  const auto& spans = serial_sink.summary().span_counts;
  const auto it = spans.find("pipeline.run");
  ASSERT_NE(it, spans.end());
  EXPECT_EQ(it->second, suite.size() * 2);
#endif
}

TEST(EvaluateTechnique, TraceSummaryWithQecIdenticalAtAnyThreadCount) {
  // The QEC stage reads its lifetime estimate from a memo that whichever
  // trial the schedule runs first fills; the fill records into no sink, so
  // per-trial traces and the merged summary stay schedule-independent.
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::with_multipass(llm::ModelProfile::kStarCoder3B, 3);

  RunnerOptions serial;
  serial.seed = 2025;
  serial.threads = 1;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 100;
  serial.qec = qec;
  serial.device = agents::DeviceTopology::grid(5, 5);
  trace::TraceSink serial_sink;
  serial.trace = &serial_sink;

  RunnerOptions wide = serial;
  wide.threads = 8;
  trace::TraceSink wide_sink;
  wide.trace = &wide_sink;

  const TrialMatrix a = run_trial_matrix(technique, suite, 2, serial);
  const TrialMatrix b = run_trial_matrix(technique, suite, 2, wide);

  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].trace, b.trials[i].trace) << "trial " << i;
  }
  EXPECT_EQ(serial_sink.summary(), wide_sink.summary());
  EXPECT_EQ(serial_sink.summary_json().dump(), wide_sink.summary_json().dump());
#if QCGEN_TRACE_ENABLED
  const auto& spans = serial_sink.summary().span_counts;
  const auto it = spans.find("pipeline.qec_plan");
  ASSERT_NE(it, spans.end());
  EXPECT_GT(it->second, 0u);
#endif
}

TEST(EvaluateTechnique, UntracedRunLeavesSummaryEmpty) {
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B);
  RunnerOptions options;
  options.samples_per_case = 1;
  const AccuracyReport report = evaluate_technique(technique, suite, options);
  EXPECT_TRUE(report.trace.empty());
}

TEST(EvaluatePassAtK, IdenticalAtAnyThreadCount) {
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B);

  RunnerOptions serial;
  serial.seed = 7;
  serial.threads = 1;
  RunnerOptions wide = serial;
  wide.threads = 8;

  const double a = evaluate_pass_at_k(technique, suite, 4, 2, serial);
  const double b = evaluate_pass_at_k(technique, suite, 4, 2, wide);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
}

TEST(EvaluateTechnique, DifferentSeedsProduceIndependentRuns) {
  // Sanity check that the seed actually feeds the trial streams (a bug
  // that ignored it would trivially pass the determinism tests).
  const auto suite = small_suite();
  const auto technique =
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B);
  RunnerOptions x;
  x.samples_per_case = 2;
  x.seed = 1;
  RunnerOptions y = x;
  y.seed = 999;
  const auto a = run_trial_matrix(technique, suite, 2, x).trials;
  const auto b = run_trial_matrix(technique, suite, 2, y).trials;
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pipeline.generation.source !=
        b[i].pipeline.generation.source) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace qcgen::eval
