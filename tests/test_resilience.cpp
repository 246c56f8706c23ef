// Resilient-execution tests: dormant equivalence of the resilience
// layer, trial containment under 100%-failure chaos scenarios,
// degradation ladders, retry/budget semantics, and the error paths the
// pipeline must survive without any fault injection (degenerate
// topologies, empty suites, empty references).

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agents/pipeline.hpp"
#include "agents/qec_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/topology.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "eval/judge.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"

namespace qcgen {
namespace {

std::vector<eval::TestCase> small_suite(std::size_t n) {
  auto full = eval::semantic_suite();
  full.resize(std::min(n, full.size()));
  return full;
}

agents::TechniqueConfig test_technique() {
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 2;
  return technique;
}

eval::RunnerOptions base_options() {
  eval::RunnerOptions options;
  options.samples_per_case = 1;
  options.seed = 4242;
  options.threads = 2;
  return options;
}

// ---------------------------------------------------------------------
// Dormant behaviour: the resilience layer must be invisible until a
// stage actually fails.

TEST(Resilience, DormantPolicyDoesNotChangeResults) {
  const auto suite = small_suite(6);
  const auto technique = test_technique();

  const eval::AccuracyReport plain =
      eval::evaluate_technique(technique, suite, base_options());

  eval::RunnerOptions armed = base_options();
  armed.resilience.max_stage_retries = 3;
  armed.resilience.backoff_base_units = 2.0;
  armed.resilience.stage_budget_units = 100.0;
  const eval::AccuracyReport hardened =
      eval::evaluate_technique(technique, suite, armed);

  EXPECT_EQ(plain.syntactic_rate, hardened.syntactic_rate);
  EXPECT_EQ(plain.semantic_rate, hardened.semantic_rate);
  EXPECT_EQ(plain.mean_passes_used, hardened.mean_passes_used);
  EXPECT_TRUE(plain.trial_failures.empty());
  EXPECT_TRUE(hardened.trial_failures.empty());
  EXPECT_TRUE(plain.degradations.empty());
  EXPECT_TRUE(hardened.degradations.empty());
  EXPECT_EQ(plain.completed_rate, 1.0);
  EXPECT_EQ(hardened.completed_rate, 1.0);
}

// ---------------------------------------------------------------------
// Error paths that need no injection.

TEST(Resilience, EmptySuiteIsRejected) {
  EXPECT_THROW((void)eval::evaluate_technique(test_technique(), {},
                                              base_options()),
               InvalidArgumentError);
}

TEST(Resilience, QecPlanOnDegenerateTopologyIsInfeasibleNotFatal) {
  const agents::QecDecoderAgent agent;
  for (const auto& device : {agents::DeviceTopology::linear(2),
                             agents::DeviceTopology::linear(16),
                             agents::DeviceTopology::grid(2, 2)}) {
    agents::QecPlan plan;
    ASSERT_NO_THROW(plan = agent.plan_for(device)) << device.name();
    EXPECT_FALSE(plan.feasible) << device.name();
    EXPECT_FALSE(plan.reason.empty()) << device.name();
  }
  // Sanity: a real lattice still plans fine.
  const agents::QecPlan good =
      agent.plan_for(agents::DeviceTopology::grid(5, 5));
  EXPECT_TRUE(good.feasible) << good.reason;
}

// ---------------------------------------------------------------------
// QEC lifetime memo: a memoized plan is the plan a recompute gives, and
// a cancelled request is cancelled at the same site with or without it.

agents::QecDecoderAgent memo_agent(qec::DecoderKind decoder) {
  agents::QecDecoderAgent::Options options;
  options.decoder = decoder;
  options.trials = 200;
  options.seed = 31;
  return agents::QecDecoderAgent(options);
}

qasm::analysis::ResourceSummary memo_program() {
  qasm::analysis::ResourceSummary summary;
  summary.computed = true;
  summary.qubits = 3;
  summary.depth = 8;
  summary.t_count = 4;
  summary.t_depth = 2;
  summary.two_qubit_count = 2;
  summary.two_qubit_pairs = {{0, 1, 1}, {0, 2, 1}};
  return summary;
}

void expect_same_plan(const agents::QecPlan& got,
                      const agents::QecPlan& want) {
  ASSERT_TRUE(got.feasible) << got.reason;
  ASSERT_TRUE(want.feasible) << want.reason;
  EXPECT_EQ(got.lifetime.physical_error_per_round,
            want.lifetime.physical_error_per_round);
  EXPECT_EQ(got.lifetime.logical_error_per_round,
            want.lifetime.logical_error_per_round);
  EXPECT_EQ(got.lifetime.physical_lifetime_rounds,
            want.lifetime.physical_lifetime_rounds);
  EXPECT_EQ(got.lifetime.logical_lifetime_rounds,
            want.lifetime.logical_lifetime_rounds);
  EXPECT_EQ(got.lifetime.lifetime_extension,
            want.lifetime.lifetime_extension);
  EXPECT_EQ(got.lifetime.suppression_factor,
            want.lifetime.suppression_factor);
  EXPECT_EQ(got.effective_noise, want.effective_noise);
  EXPECT_EQ(got.synthesis_cost, want.synthesis_cost);
  EXPECT_TRUE(got.resources.computed);
  EXPECT_EQ(agents::resource_plan_to_json(got.resources).dump(),
            agents::resource_plan_to_json(want.resources).dump());
}

const qec::DecoderKind kMemoDecoders[] = {qec::DecoderKind::kMwpm,
                                          qec::DecoderKind::kUnionFind,
                                          qec::DecoderKind::kLookup};

TEST(QecLifetimeMemo, MissAndHitBothEqualAnUnmemoizedPlan) {
  const auto program = memo_program();
  for (const auto& device : {agents::DeviceTopology::grid(5, 5),
                             agents::DeviceTopology::ibm_brisbane()}) {
    for (const qec::DecoderKind decoder : kMemoDecoders) {
      SCOPED_TRACE(device.name() + " " +
                   std::string(qec::decoder_kind_name(decoder)));
      const agents::QecDecoderAgent agent = memo_agent(decoder);
      const agents::QecPlan fresh = agent.plan_for(device, &program);
      agents::QecLifetimeMemo memo;
      expect_same_plan(agent.plan_for(device, &program, &memo), fresh);
      EXPECT_EQ(memo.size(), 1u);
      expect_same_plan(agent.plan_for(device, &program, &memo), fresh);
      EXPECT_EQ(memo.size(), 1u);
    }
  }
}

TEST(QecLifetimeMemo, ExhaustedDeadlineCancelsAtTheDecoderRoundEvenOnAHit) {
  const auto device = agents::DeviceTopology::grid(5, 5);
  const auto program = memo_program();
  const agents::QecDecoderAgent agent = memo_agent(qec::DecoderKind::kMwpm);
  agents::QecLifetimeMemo warm;
  (void)agent.plan_for(device, &program, &warm);
  ASSERT_EQ(warm.size(), 1u);

  cancel::DeadlineBudget budget(1.0);
  budget.charge(1.0);
  const cancel::CancelScope scope(cancel::CancellationToken(), &budget);
  agents::QecLifetimeMemo* const memos[] = {nullptr, &warm};
  for (agents::QecLifetimeMemo* memo : memos) {
    try {
      (void)agent.plan_for(device, &program, memo);
      ADD_FAILURE() << "plan_for finished past an exhausted deadline";
    } catch (const cancel::CancelledError& error) {
      EXPECT_EQ(error.cause(), cancel::Cause::kDeadlineExceeded);
      EXPECT_EQ(error.site(), "qec.decode.round");
    }
  }
}

TEST(QecLifetimeMemo, CancelledFillLeavesTheMemoEmpty) {
  const auto device = agents::DeviceTopology::grid(5, 5);
  const auto program = memo_program();
  const agents::QecDecoderAgent agent = memo_agent(qec::DecoderKind::kMwpm);
  agents::QecLifetimeMemo memo;
  {
    cancel::DeadlineBudget budget(1.0);
    budget.charge(1.0);
    const cancel::CancelScope scope(cancel::CancellationToken(), &budget);
    EXPECT_THROW((void)agent.plan_for(device, &program, &memo),
                 cancel::CancelledError);
    // The fill itself, cancelled by the Monte Carlo loop's checkpoint.
    qec::LifetimeConfig config;
    config.trials = 200;
    EXPECT_THROW((void)memo.measure(3, 0.01, config), cancel::CancelledError);
  }
  EXPECT_EQ(memo.size(), 0u);
  expect_same_plan(agent.plan_for(device, &program, &memo),
                   agent.plan_for(device, &program));
  EXPECT_EQ(memo.size(), 1u);
}

TEST(Resilience, OracleHandlesZeroShotOptionsAndEmptyReference) {
  const auto suite = small_suite(3);
  eval::ReferenceOracle::Options zero_shots;
  zero_shots.shots = 0;
  eval::ReferenceOracle oracle(zero_shots);
  for (const eval::TestCase& test_case : suite) {
    const sim::Distribution& reference = oracle.reference_for(test_case);
    double mass = 0.0;
    for (const auto& [bitstring, p] : reference) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-9) << test_case.id;
  }
  // An empty reference distribution is the static-only sentinel: the
  // behavioural check must report a clean mismatch, not divide by zero.
  const agents::SemanticAnalyzerAgent analyzer;
  const agents::StaticReport parsed = analyzer.analyze(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  ASSERT_TRUE(parsed.syntactic_ok);
  const agents::BehaviorReport behavior =
      analyzer.check_behavior(*parsed.circuit, sim::Distribution{});
  EXPECT_TRUE(behavior.checked);
  EXPECT_FALSE(behavior.matches);
  EXPECT_EQ(behavior.tvd, 1.0);
}

// ---------------------------------------------------------------------
// Single-pipeline ladder characterization: the exact DegradationEvent
// list each rung records, driven on one MultiAgentPipeline directly.

/// One event as "pass stage from->to | reason | site", so a mismatch
/// prints as a readable diff.
std::vector<std::string> event_lines(
    const std::vector<agents::DegradationEvent>& events) {
  std::vector<std::string> lines;
  for (const agents::DegradationEvent& event : events) {
    lines.push_back(std::to_string(event.pass) + " " + event.stage + " " +
                    event.from + "->" + event.to + " | " + event.reason +
                    " | " + event.site);
  }
  return lines;
}

struct LadderCase {
  eval::TestCase test_case;
  std::size_t prompt_index = 0;
  sim::Distribution reference;
};

LadderCase ladder_case(std::size_t index) {
  const auto suite = eval::semantic_suite();
  eval::ReferenceOracle oracle;
  return {suite[index], index, oracle.reference_for(suite[index])};
}

/// Fail-fast policy with ladders on, so the first failure walks a rung.
agents::MultiAgentPipeline ladder_pipeline(bool with_qec, int max_passes = 2) {
  std::optional<agents::QecDecoderAgent::Options> qec;
  std::optional<agents::DeviceTopology> device;
  if (with_qec) {
    qec.emplace();
    qec->trials = 200;
    device = agents::DeviceTopology::grid(5, 5);
  }
  auto technique = test_technique();
  technique.max_passes = max_passes;
  agents::MultiAgentPipeline pipeline(technique, {}, qec, device, 4242);
  agents::ResilienceOptions resilience;
  resilience.max_stage_retries = 0;
  pipeline.set_resilience(resilience);
  return pipeline;
}

/// Runs `pipeline` on `ladder` with a deadline budget pre-charged to
/// `pressure` installed for the run.
agents::PipelineResult run_under_pressure(agents::MultiAgentPipeline& pipeline,
                                          const LadderCase& ladder,
                                          double pressure) {
  cancel::DeadlineBudget budget(100.0);
  budget.charge(100.0 * pressure);
  cancel::CancelScope scope(cancel::CancellationToken{}, &budget);
  return pipeline.run(ladder.test_case.task, ladder.reference,
                      ladder.prompt_index);
}

TEST(ResilienceLadder, BudgetPressureDropsRagPastTheFirstThreshold) {
  const LadderCase ladder = ladder_case(0);
  auto pipeline = ladder_pipeline(false);
  const agents::PipelineResult result =
      run_under_pressure(pipeline, ladder, 0.6);
  EXPECT_EQ(event_lines(result.degradations),
            (std::vector<std::string>{
                "0 generate rag->no-rag | budget-pressure | "}));
}

TEST(ResilienceLadder, BudgetPressureDropsBehaviouralVerifyPastTheSecond) {
  const LadderCase ladder = ladder_case(0);
  auto pipeline = ladder_pipeline(false);
  const agents::PipelineResult result =
      run_under_pressure(pipeline, ladder, 0.85);
  ASSERT_TRUE(result.trace.front().syntactic_ok);
  EXPECT_EQ(event_lines(result.degradations),
            (std::vector<std::string>{
                "0 generate rag->no-rag | budget-pressure | ",
                "1 verify behavioral->static-only | budget-pressure | "}));
  EXPECT_EQ(event_lines(result.trace.front().degradations),
            (std::vector<std::string>{
                "1 verify behavioral->static-only | budget-pressure | "}));
}

TEST(ResilienceLadder, PressureDegradationDoesNotOutliveTheRun) {
  // Content-addressed generation and a single pass keep the run a pure
  // function of its inputs, so a reused pipeline must match a fresh one.
  const LadderCase ladder = ladder_case(0);
  auto technique = test_technique();
  technique.max_passes = 1;
  agents::MultiAgentPipeline reused(technique, {}, std::nullopt, std::nullopt,
                                    4242);
  agents::MultiAgentPipeline fresh(technique, {}, std::nullopt, std::nullopt,
                                   4242);
  reused.set_caches({true, nullptr, nullptr, nullptr});
  fresh.set_caches({true, nullptr, nullptr, nullptr});
  ASSERT_FALSE(run_under_pressure(reused, ladder, 0.6).degradations.empty());

  const agents::PipelineResult second = reused.run(
      ladder.test_case.task, ladder.reference, ladder.prompt_index);
  const agents::PipelineResult expected = fresh.run(
      ladder.test_case.task, ladder.reference, ladder.prompt_index);
  ASSERT_GT(expected.generation.retrieval.api_hits, 0u);
  EXPECT_TRUE(second.degradations.empty());
  EXPECT_EQ(second.generation.source, expected.generation.source);
  EXPECT_EQ(second.generation.retrieval.api_hits,
            expected.generation.retrieval.api_hits);
  EXPECT_EQ(second.syntactic_ok, expected.syntactic_ok);
  EXPECT_EQ(second.semantic_ok, expected.semantic_ok);
}

#if QCGEN_FAILPOINTS_ENABLED

std::set<std::pair<std::size_t, std::size_t>> failed_trials(
    const eval::AccuracyReport& report) {
  std::set<std::pair<std::size_t, std::size_t>> keys;
  for (const eval::TrialFailure& failure : report.trial_failures) {
    keys.emplace(failure.case_idx, failure.sample_idx);
  }
  return keys;
}

// ---------------------------------------------------------------------
// Chaos determinism: a fixed (seed, scenario) must produce identical
// reports at any thread count.

TEST(ResilienceChaos, DeterministicAcrossThreadCounts) {
  const auto suite = small_suite(8);
  const auto technique = test_technique();
  eval::RunnerOptions options = base_options();
  options.samples_per_case = 2;
  options.chaos_scenario =
      "llm.generate=error(0.25);retrieval.query=error(0.25);"
      "analyzer.simulate=error(0.25)";
  options.resilience.max_stage_retries = 1;

  options.threads = 1;
  const eval::AccuracyReport serial =
      eval::evaluate_technique(technique, suite, options);
  options.threads = 8;
  const eval::AccuracyReport parallel =
      eval::evaluate_technique(technique, suite, options);

  EXPECT_EQ(serial.syntactic_rate, parallel.syntactic_rate);
  EXPECT_EQ(serial.semantic_rate, parallel.semantic_rate);
  EXPECT_EQ(serial.completed_rate, parallel.completed_rate);
  EXPECT_EQ(serial.trial_failures, parallel.trial_failures);
  EXPECT_EQ(serial.degradations, parallel.degradations);
  // The scenario actually did something, or this test proves nothing.
  EXPECT_FALSE(serial.trial_failures.empty() &&
               serial.degradations.empty());
}

// ---------------------------------------------------------------------
// Containment: 100% failure on any single site still completes the
// full trial matrix with structured failures, never an escaped throw.

struct FullFailureCase {
  const char* scenario;
  bool expect_failures;   ///< site is mandatory and has no working ladder
  const char* fail_stage; ///< expected TrialFailure::stage when failing
};

TEST(ResilienceChaos, FullFailureScenariosCompleteTheMatrix) {
  const auto suite = small_suite(4);
  const auto technique = test_technique();
  const std::vector<FullFailureCase> cases = {
      {"llm.generate=error(1.0)", true, "generate"},
      {"analyzer.parse=error(1.0)", true, "analyze"},
      {"pool.task=error(1.0)", true, "trial"},
      // These sites degrade gracefully: the ladder absorbs the fault.
      {"retrieval.query=error(1.0)", false, ""},
      {"analyzer.simulate=error(1.0)", false, ""},
      {"analyzer.abstract=error(1.0)", false, ""},
      {"oracle.reference=error(1.0)", false, ""},
  };
  for (const FullFailureCase& chaos : cases) {
    eval::RunnerOptions options = base_options();
    options.chaos_scenario = chaos.scenario;
    eval::AccuracyReport report;
    ASSERT_NO_THROW(report = eval::evaluate_technique(technique, suite,
                                                      options))
        << chaos.scenario;
    const std::size_t total = suite.size() * options.samples_per_case;
    EXPECT_EQ(report.trial_failures.size(),
              total - static_cast<std::size_t>(
                          report.completed_rate * total + 0.5))
        << chaos.scenario;
    if (chaos.expect_failures) {
      EXPECT_EQ(report.completed_rate, 0.0) << chaos.scenario;
      EXPECT_EQ(report.semantic_rate, 0.0) << chaos.scenario;
      EXPECT_EQ(report.mean_passes_used, 0.0) << chaos.scenario;
      ASSERT_EQ(report.trial_failures.size(), total) << chaos.scenario;
      for (const eval::TrialFailure& failure : report.trial_failures) {
        EXPECT_EQ(failure.stage, chaos.fail_stage) << chaos.scenario;
        EXPECT_FALSE(failure.site.empty()) << chaos.scenario;
      }
    } else {
      EXPECT_EQ(report.completed_rate, 1.0) << chaos.scenario;
      EXPECT_TRUE(report.trial_failures.empty()) << chaos.scenario;
      EXPECT_FALSE(report.degradations.empty()) << chaos.scenario;
    }
  }
}

TEST(ResilienceChaos, OracleOutageDegradesToStaticOnlyPerCase) {
  const auto suite = small_suite(4);
  eval::RunnerOptions options = base_options();
  options.chaos_scenario = "oracle.reference=error(1.0)";
  const eval::AccuracyReport report =
      eval::evaluate_technique(test_technique(), suite, options);
  EXPECT_EQ(report.completed_rate, 1.0);
  ASSERT_EQ(report.degradations.size(), suite.size());
  for (std::size_t i = 0; i < report.degradations.size(); ++i) {
    const eval::DegradationRecord& record = report.degradations[i];
    EXPECT_EQ(record.case_idx, i);
    EXPECT_EQ(record.event.stage, "oracle");
    EXPECT_EQ(record.event.to, "static-only");
  }
  // Static-only verification: semantic mirrors syntactic.
  EXPECT_EQ(report.semantic_rate, report.syntactic_rate);
}

TEST(ResilienceChaos, VerifyLadderFallsBackToStaticOnly) {
  const auto suite = small_suite(4);
  eval::RunnerOptions options = base_options();
  options.chaos_scenario = "analyzer.simulate=error(1.0)";
  const eval::AccuracyReport report =
      eval::evaluate_technique(test_technique(), suite, options);
  EXPECT_EQ(report.completed_rate, 1.0);
  bool saw_verify = false;
  for (const eval::DegradationRecord& record : report.degradations) {
    if (record.event.stage != "verify") continue;
    saw_verify = true;
    EXPECT_EQ(record.event.from, "behavioral");
    EXPECT_EQ(record.event.to, "static-only");
    EXPECT_NE(record.event.reason.find("analyzer.simulate"),
              std::string::npos);
  }
  EXPECT_TRUE(saw_verify);
}

TEST(ResilienceChaos, AnalyzeLadderFallsBackToCoreLints) {
  const auto suite = small_suite(4);
  eval::RunnerOptions options = base_options();
  options.chaos_scenario = "analyzer.abstract=error(1.0)";
  const eval::AccuracyReport report =
      eval::evaluate_technique(test_technique(), suite, options);
  EXPECT_EQ(report.completed_rate, 1.0);
  bool saw_analyze = false;
  for (const eval::DegradationRecord& record : report.degradations) {
    if (record.event.stage != "analyze") continue;
    saw_analyze = true;
    EXPECT_EQ(record.event.from, "abstract-lints");
    EXPECT_EQ(record.event.to, "core-lints");
  }
  EXPECT_TRUE(saw_analyze);
}

TEST(ResilienceChaos, QecLadderWalksToNone) {
  // qec.decode=error(1.0) kills every rung; semantically-correct trials
  // must still complete, ending the ladder at "none" with no plan.
  const auto suite = small_suite(10);
  eval::RunnerOptions options = base_options();
  options.chaos_scenario = "qec.decode=error(1.0)";
  agents::QecDecoderAgent::Options qec;
  qec.trials = 200;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);
  const eval::AccuracyReport report =
      eval::evaluate_technique(test_technique(), suite, options);
  EXPECT_EQ(report.completed_rate, 1.0);
  EXPECT_TRUE(report.trial_failures.empty());
  std::vector<const eval::DegradationRecord*> qec_events;
  for (const eval::DegradationRecord& record : report.degradations) {
    if (record.event.stage == "qec") qec_events.push_back(&record);
  }
  // The suite slice must contain at least one semantic success for the
  // QEC stage to run at all; the ladder is mwpm -> union-find -> lookup
  // -> none, so events come in threes ending at "none".
  ASSERT_FALSE(qec_events.empty());
  ASSERT_EQ(qec_events.size() % 3, 0u);
  for (std::size_t i = 0; i < qec_events.size(); i += 3) {
    EXPECT_EQ(qec_events[i]->event.from, "mwpm");
    EXPECT_EQ(qec_events[i + 1]->event.from, "union-find");
    EXPECT_EQ(qec_events[i + 2]->event.from, "lookup");
    EXPECT_EQ(qec_events[i + 2]->event.to, "none");
  }
}

// ---------------------------------------------------------------------
// Retries: adding retries can only rescue trials, never break new ones,
// and the rescued run stays deterministic.

TEST(ResilienceChaos, RetriedFailuresAreASubsetOfUnretriedOnes) {
  const auto suite = small_suite(8);
  const auto technique = test_technique();
  eval::RunnerOptions options = base_options();
  options.samples_per_case = 2;
  options.chaos_scenario = "llm.generate=error(0.4)";

  options.resilience.max_stage_retries = 0;
  const auto without = failed_trials(
      eval::evaluate_technique(technique, suite, options));
  options.resilience.max_stage_retries = 2;
  const eval::AccuracyReport retried_report =
      eval::evaluate_technique(technique, suite, options);
  const auto with = failed_trials(retried_report);

  EXPECT_FALSE(without.empty());  // the rate is high enough to matter
  EXPECT_LT(with.size(), without.size());
  EXPECT_TRUE(std::includes(without.begin(), without.end(), with.begin(),
                            with.end()));
  // Surviving failures carry the retry count the policy spent.
  for (const eval::TrialFailure& failure : retried_report.trial_failures) {
    EXPECT_GT(failure.retries, 0);
  }
}

// ---------------------------------------------------------------------
// Budget and delay semantics.

TEST(ResilienceChaos, DelaysWithUnlimitedBudgetDoNotPerturbResults) {
  const auto suite = small_suite(6);
  const auto technique = test_technique();
  const eval::AccuracyReport plain =
      eval::evaluate_technique(technique, suite, base_options());

  eval::RunnerOptions delayed = base_options();
  delayed.chaos_scenario = "llm.generate=delay(2.0)";
  const eval::AccuracyReport slowed =
      eval::evaluate_technique(technique, suite, delayed);

  // Injected delays charge budget units but draw from the chaos streams,
  // never the model streams: accuracy must be bit-identical.
  EXPECT_EQ(plain.syntactic_rate, slowed.syntactic_rate);
  EXPECT_EQ(plain.semantic_rate, slowed.semantic_rate);
  EXPECT_EQ(plain.mean_passes_used, slowed.mean_passes_used);
  EXPECT_EQ(slowed.completed_rate, 1.0);
  EXPECT_TRUE(slowed.trial_failures.empty());
}

TEST(ResilienceChaos, DelayBeyondStageBudgetFailsTheStageDeterministically) {
  const auto suite = small_suite(4);
  const auto technique = test_technique();
  eval::RunnerOptions options = base_options();
  options.chaos_scenario = "llm.generate=delay(3.0)";
  options.resilience.stage_budget_units = 1.0;

  const eval::AccuracyReport first =
      eval::evaluate_technique(technique, suite, options);
  const eval::AccuracyReport second =
      eval::evaluate_technique(technique, suite, options);

  EXPECT_EQ(first.completed_rate, 0.0);
  ASSERT_FALSE(first.trial_failures.empty());
  for (const eval::TrialFailure& failure : first.trial_failures) {
    EXPECT_EQ(failure.stage, "generate");
    EXPECT_NE(failure.what.find("budget"), std::string::npos);
  }
  EXPECT_EQ(first.trial_failures, second.trial_failures);
  EXPECT_EQ(first.degradations, second.degradations);
}

// ---------------------------------------------------------------------
// Ladder rungs forced by injected faults, one rung family per scenario.

/// The event_lines rendering of a rung forced by an injected fault.
std::string injected(int pass, const std::string& rung,
                     const std::string& site) {
  return std::to_string(pass) + " " + rung + " | injected fault at " + site +
         " | " + site;
}

/// The events a fresh fail-fast pipeline records on `ladder` with
/// `scenario` armed.
std::vector<std::string> ladder_events(const char* scenario,
                                       const LadderCase& ladder,
                                       bool with_qec = false,
                                       int max_passes = 2) {
  auto pipeline = ladder_pipeline(with_qec, max_passes);
  failpoint::Injector injector(std::make_shared<const failpoint::Scenario>(
                                   failpoint::Scenario::parse(scenario)),
                               7);
  failpoint::InjectorScope scope(&injector);
  const agents::PipelineResult result = pipeline.run(
      ladder.test_case.task, ladder.reference, ladder.prompt_index);
  return event_lines(result.degradations);
}

TEST(ResilienceLadder, RetrievalOutageWalksGenerateToNoRag) {
  EXPECT_EQ(ladder_events("retrieval.query=error(1.0)", ladder_case(0)),
            (std::vector<std::string>{
                injected(0, "generate rag->no-rag", "retrieval.query")}));
}

TEST(ResilienceLadder, RetrievalOutageWalksRepairToNoRag) {
  // Generation spends the first two queries (API + guide store); every
  // third query fails, which lands on the first repair that replans.
  EXPECT_EQ(ladder_events("retrieval.query=error(1.0)@every=3",
                          ladder_case(47), /*with_qec=*/false,
                          /*max_passes=*/10),
            (std::vector<std::string>{
                injected(4, "repair rag->no-rag", "retrieval.query")}));
}

TEST(ResilienceLadder, RepairOutageAbortsTheMultiPassLoop) {
  // Every second llm.generate hit fails: generation succeeds, the first
  // repair does not.
  EXPECT_EQ(ladder_events("llm.generate=error(1.0)@every=2", ladder_case(0)),
            (std::vector<std::string>{
                injected(1, "repair multi-pass->abort", "llm.generate")}));
}

TEST(ResilienceLadder, AbstractOutageFallsBackToCoreLintsEachPass) {
  EXPECT_EQ(ladder_events("analyzer.abstract=error(1.0)", ladder_case(0)),
            (std::vector<std::string>{
                injected(1, "analyze abstract-lints->core-lints",
                         "analyzer.abstract"),
                injected(2, "analyze abstract-lints->core-lints",
                         "analyzer.abstract")}));
}

TEST(ResilienceLadder, SimulatorOutageFallsBackToStaticOnly) {
  EXPECT_EQ(ladder_events("analyzer.simulate=error(1.0)", ladder_case(0)),
            (std::vector<std::string>{
                injected(1, "verify behavioral->static-only",
                         "analyzer.simulate")}));
}

TEST(ResilienceLadder, DecoderOutageWalksEveryDecoderToNone) {
  // Static-only verification passes the syntactically valid first pass,
  // which is what lets the QEC stage run at all.
  EXPECT_EQ(ladder_events("analyzer.simulate=error(1.0);qec.decode=error(1.0)",
                          ladder_case(0), /*with_qec=*/true),
            (std::vector<std::string>{
                injected(1, "verify behavioral->static-only",
                         "analyzer.simulate"),
                injected(1, "qec mwpm->union-find", "qec.decode"),
                injected(1, "qec union-find->lookup", "qec.decode"),
                injected(1, "qec lookup->none", "qec.decode")}));
}

#endif  // QCGEN_FAILPOINTS_ENABLED

}  // namespace
}  // namespace qcgen
