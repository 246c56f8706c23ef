#include "eval/parallel.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <optional>

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

/// A trial that has run, held until every trial before it is visited.
struct Finished {
  std::size_t case_idx = 0;
  std::size_t sample_idx = 0;
  agents::PipelineResult result;  ///< meaningless when `failure` is set
  std::optional<TrialFailure> failure;
  std::unique_ptr<trace::TraceSink> sink;  ///< null when untraced
};

/// Visits finished trials in trial index order and merges each one's
/// sink into the matrix sink. A trial that finishes ahead of its
/// predecessors waits in an index-keyed window; whichever worker
/// completes the next index drains the contiguous prefix under the
/// fold's lock. Workers claim trials in index order, so the window only
/// holds what scheduling jitter puts out of order.
class OrderedFold {
 public:
  OrderedFold(const std::function<void(const Trial&)>& visit,
              trace::TraceSink* trace)
      : visit_(visit), trace_(trace) {}

  void complete(std::size_t index, Finished trial) {
    // Declared before the lock, so the drained trials (and `trial`) are
    // freed after it is released: freeing them under it stalls the other
    // workers (fig3 at 4 workers on 4 vCPUs ran ~15% slower).
    std::map<std::size_t, Finished> drained;
    std::lock_guard<std::mutex> lock(mutex_);
    if (index != next_) {
      window_.emplace(index, std::move(trial));
      return;
    }
    fold(trial);
    while (!window_.empty() && window_.begin()->first == next_) {
      auto node = window_.extract(window_.begin());
      fold(node.mapped());
      drained.insert(std::move(node));
    }
  }

 private:
  void fold(const Finished& trial) {
    ++next_;
    visit_(Trial{trial.case_idx, trial.sample_idx,
                 trial.failure.has_value() ? nullptr : &trial.result,
                 trial.failure.has_value() ? &*trial.failure : nullptr,
                 trial.sink.get()});
    if (trace_ != nullptr) trace_->merge(*trial.sink);
  }

  const std::function<void(const Trial&)>& visit_;
  trace::TraceSink* trace_;
  std::mutex mutex_;
  std::size_t next_ = 0;  ///< the next trial index to visit
  std::map<std::size_t, Finished> window_;
};

}  // namespace

TrialMatrix run_trial_matrix(const agents::TechniqueConfig& technique,
                             const std::vector<TestCase>& suite,
                             std::size_t samples_per_case,
                             const RunnerOptions& options,
                             const std::function<void(const Trial&)>& visit) {
  require(!suite.empty(), "run_trial_matrix: empty suite");
  require(samples_per_case >= 1, "run_trial_matrix: samples_per_case >= 1");

  // Parsed once up front: a malformed scenario is a configuration error
  // and fails fast, before any trial runs.
  const std::shared_ptr<const failpoint::Scenario> scenario =
      failpoint::ScenarioScope::arm(options.chaos_scenario);

  TrialMatrix matrix;

  // Suite-wide immutable state, shared read-only by every per-trial
  // pipeline: the RAG indexes and knowledge profile and the gold reference
  // distributions (prewarmed so workers only read the cache). Both come
  // from process-wide tables, so only the first matrix of a configuration
  // builds them. The oracle runs serially on this thread under its own
  // matrix-level injector; a case whose oracle stays down degrades to
  // static-only verification (empty reference) instead of poisoning its
  // trials. Retrieval is memoized for the matrix's life, like analysis
  // below.
  const auto resources = std::make_shared<const agents::TechniqueResources>(
      technique, std::make_shared<llm::RetrievalCache>(cache::CacheOptions{}));
  ReferenceOracle oracle;
  static const sim::Distribution kEmptyReference;
  std::vector<const sim::Distribution*> references;
  references.reserve(suite.size());
  // Each case's gold program, from the oracle's build of its reference
  // (null when the oracle is down: generation then builds its own).
  std::vector<std::shared_ptr<const llm::GoldProgram>> golds(suite.size());
  {
    const failpoint::ScenarioScope chaos(scenario,
                                         options.seed ^ kOracleChaosSalt);
    for (std::size_t case_idx = 0; case_idx < suite.size(); ++case_idx) {
      try {
        references.push_back(&oracle.reference_for(suite[case_idx]));
        golds[case_idx] = oracle.gold(suite[case_idx].id);
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
  // The analyzer configuration of both analyze rungs, compiled once.
  const agents::AnalyzerKit analyzers(options.analyzer);
  agents::PipelineCaches caches;
  caches.analysis =
      std::make_shared<agents::AnalysisCache>(cache::CacheOptions{});
  caches.qec_lifetime = std::make_shared<agents::QecLifetimeMemo>();

  const std::size_t n_trials = suite.size() * samples_per_case;
  const bool tracing = options.trace != nullptr;
  OrderedFold fold(visit, options.trace);
  ThreadPool pool(options.threads);
  pool.parallel_for(n_trials, [&](std::size_t trial) {
    Finished out;
    out.case_idx = trial / samples_per_case;
    out.sample_idx = trial % samples_per_case;
    // The trial's own sink, written only by this worker while it runs.
    if (tracing) {
      out.sink =
          std::make_unique<trace::TraceSink>(options.trace->keep_events());
    }
    {
      const trace::SinkScope scope(out.sink.get());
      // Per-trial injector on an independent chaos stream: injection
      // decisions depend only on (seed, case, sample), never the worker
      // schedule, so chaos runs are bit-identical at any thread count.
      const failpoint::ScenarioScope chaos(
          scenario, trial_seed(options.seed ^ kTrialChaosSalt, out.case_idx,
                               out.sample_idx));
      try {
        failpoint::trip("pool.task");
        agents::MultiAgentPipeline pipeline(
            technique, resources, analyzers, options.qec, options.device,
            trial_seed(options.seed, out.case_idx, out.sample_idx));
        pipeline.set_resilience(options.resilience);
        pipeline.set_caches(caches);
        out.result = pipeline.run(suite[out.case_idx].task,
                                  *references[out.case_idx], out.case_idx,
                                  golds[out.case_idx]);
      } catch (const std::exception& error) {
        agents::RunFailure f = agents::read_run_failure(error, "trial");
        out.failure = TrialFailure{out.case_idx, out.sample_idx,
                                   std::move(f.stage), std::move(f.site),
                                   f.retries, std::move(f.what)};
        trace::Metrics::counter("eval.trial_failures");
      }
    }
    fold.complete(trial, std::move(out));
  });
  matrix.analysis_cache = caches.analysis->stats();
  return matrix;
}

}  // namespace qcgen::eval
