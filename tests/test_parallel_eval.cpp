// Determinism tests for the parallel evaluation engine (eval/parallel.hpp,
// eval/runner.hpp): the same experiment must produce bit-identical
// reports at any thread count, because every (case, sample) trial draws
// from an independent RNG stream.

#include "eval/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "agents/technique_resources.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "eval/judge.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "llm/knowledge.hpp"
#include "qasm/printer.hpp"

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

// The chaos salts of eval/parallel.cpp: the uncached loop below must draw
// the same injection decisions as the matrix it is compared with.
constexpr std::uint64_t kTrialChaosSalt = 0x7c3a5ec1d9b04f37ULL;
constexpr std::uint64_t kOracleChaosSalt = 0x51ed2700c611a1b5ULL;

// The ladder scenario scripts/check.sh runs bench_chaos under: it steps
// down every stage (generate, analyze, verify, repair, qec).
constexpr const char* kLadderScenario =
    "retrieval.query=error(0.5);llm.generate=error(0.6)@pass>1;"
    "analyzer.abstract=error(0.3);analyzer.simulate=error(0.3);"
    "qec.decode=error(1.0)";

/// run_trial_matrix's trial body, run serially with only the QEC lifetime
/// memo attached: no analysis cache, no retrieval cache.
std::vector<TrialResult> run_uncached(const agents::TechniqueConfig& technique,
                                      const std::vector<TestCase>& suite,
                                      std::size_t samples_per_case,
                                      const RunnerOptions& options) {
  std::shared_ptr<const failpoint::Scenario> scenario;
  if (!options.chaos_scenario.empty()) {
    scenario = std::make_shared<const failpoint::Scenario>(
        failpoint::Scenario::parse(options.chaos_scenario));
  }
  const auto resources =
      std::make_shared<const agents::TechniqueResources>(technique);
  ReferenceOracle oracle(options.oracle);
  std::vector<sim::Distribution> references;
  {
    std::optional<failpoint::Injector> injector;
    std::optional<failpoint::InjectorScope> scope;
    if (scenario != nullptr) {
      injector.emplace(scenario, options.seed ^ kOracleChaosSalt);
      scope.emplace(&*injector);
    }
    for (const TestCase& test_case : suite) {
      try {
        references.push_back(oracle.reference_for(test_case));
      } catch (const std::exception&) {
        references.emplace_back();
      }
    }
  }
  agents::PipelineCaches caches;
  caches.qec_lifetime = std::make_shared<agents::QecLifetimeMemo>();
  std::vector<TrialResult> results(suite.size() * samples_per_case);
  for (std::size_t trial = 0; trial < results.size(); ++trial) {
    trace::TraceSink sink;
    const trace::SinkScope sink_scope(&sink);
    TrialResult& out = results[trial];
    out.case_idx = trial / samples_per_case;
    out.sample_idx = trial % samples_per_case;
    std::optional<failpoint::Injector> injector;
    std::optional<failpoint::InjectorScope> scope;
    if (scenario != nullptr) {
      injector.emplace(scenario,
                       trial_seed(options.seed ^ kTrialChaosSalt,
                                  out.case_idx, out.sample_idx));
      scope.emplace(&*injector);
    }
    try {
      failpoint::trip("pool.task");
      agents::MultiAgentPipeline pipeline(
          technique, resources, options.analyzer, options.qec, options.device,
          trial_seed(options.seed, out.case_idx, out.sample_idx));
      pipeline.set_resilience(options.resilience);
      pipeline.set_caches(caches);
      out.pipeline = pipeline.run(suite[out.case_idx].task,
                                  references[out.case_idx], out.case_idx);
    } catch (const agents::PipelineStageError& error) {
      out.failure = TrialFailure{out.case_idx, out.sample_idx, error.stage(),
                                 error.site(), error.retries(), error.what()};
    } catch (const failpoint::InjectedFault& fault) {
      out.failure = TrialFailure{out.case_idx, out.sample_idx, "trial",
                                 fault.site(), 0, fault.what()};
    } catch (const std::exception& error) {
      out.failure = TrialFailure{out.case_idx, out.sample_idx, "trial", "", 0,
                                 error.what()};
    }
    if (out.failure.has_value()) {
      trace::Metrics::counter("eval.trial_failures");
    }
    out.trace = sink.summary();
  }
  return results;
}

void expect_same_generation(const llm::GenerationResult& got,
                            const llm::GenerationResult& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(qasm::print_program(got.ast), qasm::print_program(want.ast));
  EXPECT_EQ(qasm::print_program(got.intended_ast),
            qasm::print_program(want.intended_ast));
  ASSERT_EQ(got.faults.size(), want.faults.size());
  for (std::size_t i = 0; i < got.faults.size(); ++i) {
    EXPECT_EQ(got.faults[i].kind, want.faults[i].kind);
    EXPECT_EQ(got.faults[i].detail, want.faults[i].detail);
    EXPECT_EQ(got.faults[i].stmt_index, want.faults[i].stmt_index);
  }
  ASSERT_EQ(got.scaffold.has_value(), want.scaffold.has_value());
  if (got.scaffold.has_value()) {
    EXPECT_EQ(got.scaffold->style, want.scaffold->style);
    EXPECT_EQ(got.scaffold->text, want.scaffold->text);
    EXPECT_EQ(got.scaffold->faithful, want.scaffold->faithful);
  }
  EXPECT_EQ(got.retrieval.api_hits, want.retrieval.api_hits);
  EXPECT_EQ(got.retrieval.api_fresh_hits, want.retrieval.api_fresh_hits);
  EXPECT_EQ(got.retrieval.guide_matched_algorithm,
            want.retrieval.guide_matched_algorithm);
  EXPECT_EQ(llm::knowledge_digest(got.effective),
            llm::knowledge_digest(want.effective));
}

void expect_same_qec(const std::optional<agents::QecPlan>& got,
                     const std::optional<agents::QecPlan>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got.has_value()) return;
  EXPECT_EQ(got->feasible, want->feasible);
  EXPECT_EQ(got->reason, want->reason);
  EXPECT_EQ(got->distance, want->distance);
  EXPECT_EQ(got->decoder, want->decoder);
  EXPECT_EQ(got->lifetime.physical_error_per_round,
            want->lifetime.physical_error_per_round);
  EXPECT_EQ(got->lifetime.logical_error_per_round,
            want->lifetime.logical_error_per_round);
  EXPECT_EQ(got->lifetime.physical_lifetime_rounds,
            want->lifetime.physical_lifetime_rounds);
  EXPECT_EQ(got->lifetime.logical_lifetime_rounds,
            want->lifetime.logical_lifetime_rounds);
  EXPECT_EQ(got->lifetime.lifetime_extension,
            want->lifetime.lifetime_extension);
  EXPECT_EQ(got->lifetime.suppression_factor,
            want->lifetime.suppression_factor);
  EXPECT_EQ(got->physical_noise, want->physical_noise);
  EXPECT_EQ(got->effective_noise, want->effective_noise);
  EXPECT_EQ(got->synthesis_cost, want->synthesis_cost);
  EXPECT_EQ(agents::resource_plan_to_json(got->resources).dump(),
            agents::resource_plan_to_json(want->resources).dump());
}

/// Every PipelineResult field, the failure record and the trace summary.
void expect_same_trial(const TrialResult& got, const TrialResult& want) {
  EXPECT_EQ(got.case_idx, want.case_idx);
  EXPECT_EQ(got.sample_idx, want.sample_idx);
  EXPECT_EQ(got.failure, want.failure);
  EXPECT_EQ(got.trace, want.trace);
  const agents::PipelineResult& a = got.pipeline;
  const agents::PipelineResult& b = want.pipeline;
  EXPECT_EQ(a.syntactic_ok, b.syntactic_ok);
  EXPECT_EQ(a.semantic_ok, b.semantic_ok);
  EXPECT_EQ(a.passes_used, b.passes_used);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    SCOPED_TRACE("pass trace " + std::to_string(i));
    EXPECT_EQ(a.trace[i].pass, b.trace[i].pass);
    EXPECT_EQ(a.trace[i].syntactic_ok, b.trace[i].syntactic_ok);
    EXPECT_EQ(a.trace[i].semantic_ok, b.trace[i].semantic_ok);
    EXPECT_EQ(a.trace[i].tvd, b.trace[i].tvd);
    EXPECT_EQ(a.trace[i].error_count, b.trace[i].error_count);
    EXPECT_EQ(a.trace[i].error_trace, b.trace[i].error_trace);
    EXPECT_EQ(a.trace[i].diagnostics, b.trace[i].diagnostics);
    EXPECT_EQ(a.trace[i].degradations, b.trace[i].degradations);
    EXPECT_EQ(a.trace[i].repair_certificate, b.trace[i].repair_certificate);
    EXPECT_EQ(a.trace[i].repair_rejected, b.trace[i].repair_rejected);
  }
  expect_same_generation(a.generation, b.generation);
  EXPECT_EQ(a.circuit, b.circuit);
  expect_same_qec(a.qec, b.qec);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.stage_retries, b.stage_retries);
  EXPECT_EQ(a.budget_consumed, b.budget_consumed);
  EXPECT_EQ(a.certified_repairs, b.certified_repairs);
  EXPECT_EQ(a.rejected_repairs, b.rejected_repairs);
}

void expect_matrix_matches_uncached(const std::string& scenario) {
  const auto suite = small_suite();
  agents::TechniqueConfig technique =
      agents::TechniqueConfig::with_multipass(llm::ModelProfile::kStarCoder3B, 3);
  technique.rag_api = true;
  technique.rag_guides = true;
  RunnerOptions options;
  options.seed = 2025;
  options.chaos_scenario = scenario;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 100;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);
  const std::size_t samples = 2;
  const std::vector<TrialResult> want =
      run_uncached(technique, suite, samples, options);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    trace::TraceSink sink;
    options.trace = &sink;
    options.threads = threads;
    const TrialMatrix got = run_trial_matrix(technique, suite, samples, options);
    ASSERT_EQ(got.trials.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("trial " + std::to_string(i));
      expect_same_trial(got.trials[i], want[i]);
    }
    // Trials meet the same programs again, so the memo really serves hits.
    EXPECT_GT(got.analysis_cache.lookups, got.analysis_cache.misses);
  }
}

TEST(RunTrialMatrix, ReusedAnalysisMatchesUncachedPipelines) {
  expect_matrix_matches_uncached("");
}

TEST(RunTrialMatrix, ReusedAnalysisMatchesUncachedPipelinesUnderLadderChaos) {
  expect_matrix_matches_uncached(kLadderScenario);
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
