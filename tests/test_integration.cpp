// End-to-end integration tests across the full stack: generation ->
// analysis -> repair -> judging -> QEC planning -> noisy resimulation.

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "agents/pipeline.hpp"
#include "eval/judge.hpp"
#include "eval/runner.hpp"
#include "qec/logical_error.hpp"
#include "sim/noise.hpp"

namespace qcgen {
namespace {

TEST(Integration, TechniqueOrderingMatchesPaperShape) {
  // The paper's central Fig 3 ordering on a subsample of the suite:
  // base < fine-tuned, and fine-tuned < fine-tuned + SCoT by a wide
  // margin. (Full-suite numbers are produced by bench_fig3_techniques.)
  auto suite = eval::semantic_suite();
  // Subsample every other case to keep the test fast but representative.
  std::vector<eval::TestCase> sampled;
  for (std::size_t i = 0; i < suite.size(); i += 2) sampled.push_back(suite[i]);
  eval::RunnerOptions options;
  options.samples_per_case = 2;

  using agents::TechniqueConfig;
  const auto profile = llm::ModelProfile::kStarCoder3B;
  const auto base =
      eval::evaluate_technique(TechniqueConfig::base(profile), sampled, options);
  const auto ft = eval::evaluate_technique(
      TechniqueConfig::fine_tuned_only(profile), sampled, options);
  const auto scot = eval::evaluate_technique(TechniqueConfig::with_scot(profile),
                                             sampled, options);
  EXPECT_LT(base.semantic_rate, ft.semantic_rate + 0.05);
  EXPECT_GT(scot.semantic_rate, ft.semantic_rate + 0.10);
  EXPECT_GT(scot.semantic_rate, 2.0 * base.semantic_rate * 0.8);
}

TEST(Integration, MultipassImprovesFineTunedModel) {
  auto suite = eval::semantic_suite();
  std::vector<eval::TestCase> sampled;
  for (std::size_t i = 0; i < suite.size(); i += 3) sampled.push_back(suite[i]);
  eval::RunnerOptions options;
  options.samples_per_case = 2;
  const auto profile = llm::ModelProfile::kStarCoder3B;
  const auto single = eval::evaluate_technique(
      agents::TechniqueConfig::with_multipass(profile, 1), sampled, options);
  const auto triple = eval::evaluate_technique(
      agents::TechniqueConfig::with_multipass(profile, 3), sampled, options);
  EXPECT_GE(triple.semantic_rate, single.semantic_rate);
  EXPECT_GT(triple.mean_passes_used, 1.0);
}

TEST(Integration, RepairLoopResolvesSyntacticFailures) {
  // Syntactic accuracy must rise with passes even when semantic accuracy
  // saturates (paper: multi-pass mainly fixes syntax).
  auto suite = eval::semantic_suite();
  suite.resize(30);
  eval::RunnerOptions options;
  options.samples_per_case = 2;
  const auto profile = llm::ModelProfile::kStarCoder3B;
  const auto p1 = eval::evaluate_technique(
      agents::TechniqueConfig::with_multipass(profile, 1), suite, options);
  const auto p4 = eval::evaluate_technique(
      agents::TechniqueConfig::with_multipass(profile, 4), suite, options);
  EXPECT_GT(p4.syntactic_rate, p1.syntactic_rate);
}

TEST(Integration, FullQecFlowReducesEffectiveError) {
  // The Fig 4 flow end-to-end: pipeline with QEC on Brisbane, then noisy
  // and post-QEC resimulation of the produced circuit.
  const agents::DeviceTopology device = agents::DeviceTopology::ibm_brisbane();
  agents::QecDecoderAgent::Options qec_options;
  qec_options.target_distance = 3;
  qec_options.trials = 600;
  agents::MultiAgentPipeline pipeline(
      agents::TechniqueConfig::base(llm::ModelProfile::kGranite20B),
      agents::SemanticAnalyzerAgent::Options(), qec_options, device, 41);

  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kDeutschJozsa;
  task.params = {{"n", 2}, {"constant", 1}};
  const sim::Distribution reference =
      sim::exact_distribution(sim::circuits::deutsch_jozsa(2, true));

  agents::PipelineResult result;
  for (int attempt = 0; attempt < 20; ++attempt) {
    result = pipeline.run(task, reference, 0);
    if (result.semantic_ok) break;
  }
  ASSERT_TRUE(result.semantic_ok);
  ASSERT_TRUE(result.qec.has_value());
  ASSERT_TRUE(result.qec->feasible);
  EXPECT_LE(result.qec->lifetime.suppression_factor, 1.0);

  const Counts noisy = sim::run_noisy(*result.circuit, device.noise(),
                                      sim::NoisyRunOptions{4096, 3});
  const Counts corrected =
      sim::run_noisy(*result.circuit, result.qec->effective_noise,
                     sim::NoisyRunOptions{4096, 4});
  EXPECT_GE(outcome_probability(corrected, "00") + 0.02,
            outcome_probability(noisy, "00"));
}

TEST(Integration, ErrorTraceDrivesRepairOfKnownFault) {
  // Inject a deprecated import into a perfect program, run the pipeline
  // machinery manually and confirm the trace mentions the import and the
  // class resists repair less often than parse errors.
  const agents::SemanticAnalyzerAgent analyzer;
  const auto report = analyzer.analyze(
      "import qiskit; import qiskit.providers.aer; "
      "circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  EXPECT_FALSE(report->syntactic_ok);
  EXPECT_NE(report->error_trace.find("deprecated-import"), std::string::npos);
  EXPECT_NE(report->error_trace.find("qiskit_aer"), std::string::npos);
}

TEST(Integration, QecDecodersProtectAcrossFullStack) {
  // Surface-code Monte Carlo at moderate noise through the factory path
  // used by the QEC agent.
  const qec::SurfaceCode code = qec::SurfaceCode::rotated(3);
  qec::LogicalErrorConfig config;
  config.noise = {0.01, 0.01};
  config.trials = 1200;
  const auto mwpm = qec::estimate_logical_error(code, qec::DecoderKind::kMwpm,
                                                config);
  // Raw 3-round failure probability without correction would be roughly
  // 1 - (1-p)^(9*3) ~ 0.24; the decoder must beat that clearly.
  EXPECT_LT(mwpm.logical_error_rate, 0.12);
}

TEST(Integration, SuiteAccuracyHigherOnBasicTier) {
  auto suite = eval::semantic_suite();
  eval::RunnerOptions options;
  options.samples_per_case = 1;
  const auto report = eval::evaluate_technique(
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B),
      suite, options);
  EXPECT_GT(report.semantic_by_tier.at(llm::Tier::kBasic),
            report.semantic_by_tier.at(llm::Tier::kAdvanced));
}

}  // namespace
}  // namespace qcgen
