#include "eval/parallel.hpp"

#include <memory>

#include "agents/technique_resources.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/judge.hpp"
#include "eval/runner.hpp"

namespace qcgen::eval {

std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t case_idx,
                         std::uint64_t sample_idx) noexcept {
  // Chain the SplitMix64 finalizer over (seed, case, sample). The +1
  // offsets keep index 0 from degenerating into a no-op mix.
  std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (case_idx + 1);
  const std::uint64_t mixed = splitmix64(state);
  state = mixed + 0x9e3779b97f4a7c15ULL * (sample_idx + 1);
  return splitmix64(state);
}

namespace {

// Salts the experiment seed into independent chaos streams, so arming a
// scenario never perturbs the pipelines' own RNG streams.
constexpr std::uint64_t kTrialChaosSalt = 0x7c3a5ec1d9b04f37ULL;
constexpr std::uint64_t kOracleChaosSalt = 0x51ed2700c611a1b5ULL;

}  // namespace

TrialMatrix run_trial_matrix(const agents::TechniqueConfig& technique,
                             const std::vector<TestCase>& suite,
                             std::size_t samples_per_case,
                             const RunnerOptions& options) {
  require(!suite.empty(), "run_trial_matrix: empty suite");
  require(samples_per_case >= 1, "run_trial_matrix: samples_per_case >= 1");

  // Parsed once up front: a malformed scenario is a configuration error
  // and fails fast, before any trial runs.
  std::shared_ptr<const failpoint::Scenario> scenario;
  if (!options.chaos_scenario.empty()) {
    scenario = std::make_shared<const failpoint::Scenario>(
        failpoint::Scenario::parse(options.chaos_scenario));
    if (scenario->empty()) scenario.reset();
  }

  TrialMatrix matrix;

  // Suite-wide immutable state, built exactly once: the RAG indexes and
  // knowledge profile (shared by every per-trial pipeline) and the gold
  // reference distributions (prewarmed so workers only read the cache).
  // The oracle runs serially on this thread under its own matrix-level
  // injector; a case whose oracle stays down degrades to static-only
  // verification (empty reference) instead of poisoning its trials.
  const std::shared_ptr<const agents::TechniqueResources> resources = [&] {
    auto built = std::make_shared<agents::TechniqueResources>(technique);
    // Retrieval is memoized for the matrix's life, like analysis below.
    built->enable_retrieval_cache(
        std::make_shared<llm::RetrievalCache>(cache::CacheOptions{}));
    return built;
  }();
  ReferenceOracle oracle(options.oracle);
  static const sim::Distribution kEmptyReference;
  std::vector<const sim::Distribution*> references;
  references.reserve(suite.size());
  {
    std::optional<failpoint::Injector> oracle_injector;
    std::optional<failpoint::InjectorScope> oracle_scope;
    if (scenario != nullptr) {
      oracle_injector.emplace(scenario, options.seed ^ kOracleChaosSalt);
      oracle_scope.emplace(&*oracle_injector);
    }
    for (std::size_t case_idx = 0; case_idx < suite.size(); ++case_idx) {
      try {
        references.push_back(&oracle.reference_for(suite[case_idx]));
      } catch (const std::exception& error) {
        matrix.degradations.push_back(
            {case_idx, 0,
             {0, "oracle", "reference", "static-only", error.what(), ""}});
        references.push_back(&kEmptyReference);
      }
    }
  }

  // Memos of pure functions, owned by the matrix and shared by every
  // trial: trials keep meeting the same programs, circuits and queries,
  // and every trial's QEC stage reads one lifetime estimate per decoder
  // rung. The caches are unbounded (default CacheOptions), so their
  // hit/miss totals never depend on the worker schedule.
  agents::PipelineCaches caches;
  caches.analysis =
      std::make_shared<agents::AnalysisCache>(cache::CacheOptions{});
  caches.qec_lifetime = std::make_shared<agents::QecLifetimeMemo>();

  const std::size_t n_trials = suite.size() * samples_per_case;
  matrix.trials.resize(n_trials);
  std::vector<TrialResult>& results = matrix.trials;

  // One sink per trial: each is written by exactly one worker while the
  // trial runs, then merged below in trial index order, which keeps the
  // aggregate summary independent of the worker schedule.
  const bool tracing = options.trace != nullptr;
  std::vector<std::unique_ptr<trace::TraceSink>> sinks;
  if (tracing) {
    sinks.reserve(n_trials);
    for (std::size_t i = 0; i < n_trials; ++i) {
      sinks.push_back(
          std::make_unique<trace::TraceSink>(options.trace->keep_events()));
    }
  }

  ThreadPool pool(options.threads);
  pool.parallel_for(n_trials, [&](std::size_t trial) {
    trace::SinkScope scope(tracing ? sinks[trial].get() : nullptr);
    const std::size_t case_idx = trial / samples_per_case;
    const std::size_t sample_idx = trial % samples_per_case;
    TrialResult& out = results[trial];
    out.case_idx = case_idx;
    out.sample_idx = sample_idx;
    // Per-trial injector on an independent chaos stream: injection
    // decisions depend only on (seed, case, sample), never the worker
    // schedule, so chaos runs are bit-identical at any thread count.
    std::optional<failpoint::Injector> injector;
    std::optional<failpoint::InjectorScope> injector_scope;
    if (scenario != nullptr) {
      injector.emplace(scenario, trial_seed(options.seed ^ kTrialChaosSalt,
                                            case_idx, sample_idx));
      injector_scope.emplace(&*injector);
    }
    try {
      failpoint::trip("pool.task");
      agents::MultiAgentPipeline pipeline(
          technique, resources, options.analyzer, options.qec, options.device,
          trial_seed(options.seed, case_idx, sample_idx));
      pipeline.set_resilience(options.resilience);
      pipeline.set_caches(caches);
      out.pipeline = pipeline.run(suite[case_idx].task, *references[case_idx],
                                  case_idx);
    } catch (const agents::PipelineStageError& error) {
      out.failure = TrialFailure{case_idx, sample_idx, error.stage(),
                                 error.site(), error.retries(), error.what()};
    } catch (const failpoint::InjectedFault& fault) {
      out.failure =
          TrialFailure{case_idx, sample_idx, "trial", fault.site(), 0,
                       fault.what()};
    } catch (const std::exception& error) {
      out.failure =
          TrialFailure{case_idx, sample_idx, "trial", "", 0, error.what()};
    }
    if (out.failure.has_value()) {
      trace::Metrics::counter("eval.trial_failures");
    }
  });

  for (const TrialResult& trial : results) {
    if (trial.failure.has_value()) matrix.failures.push_back(*trial.failure);
  }
  matrix.analysis_cache = caches.analysis->stats();

  if (tracing) {
    for (std::size_t trial = 0; trial < n_trials; ++trial) {
      results[trial].trace = sinks[trial]->summary();
      options.trace->merge(*sinks[trial]);
    }
    options.trace->add_scheduler(trace::SchedulerStats{
        pool.size(), pool.tasks_executed(), pool.tasks_stolen()});
  }
  return matrix;
}

}  // namespace qcgen::eval
