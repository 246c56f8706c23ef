#pragma once
// Parallel trial scheduler for the evaluation experiments.
//
// Every (case, sample) trial is an independent unit of work: it gets its
// own pipeline (SimLM + analyzer) constructed from a per-trial RNG
// stream derived by trial_seed(seed, case_idx, sample_idx), while the
// expensive immutable state — RAG corpora/indexes, the fine-tuned
// knowledge profile, the reference distributions — is built once per
// process and shared read-only across workers and matrices. Because no
// trial observes another trial's RNG stream, the per-trial results (and
// anything a visitor folds from them, since visits come in index order)
// are bit-identical at any thread count, including --threads 1.
//
// Trials are also the containment boundary: a trial that throws (an
// injected fault, a PipelineStageError after the resilience policy is
// exhausted, or any organic exception) is handed to the visitor as a
// structured TrialFailure and never escapes the scheduler, so a
// chaos scenario with a 100% failure rate on one site still completes
// the full matrix. When RunnerOptions::chaos_scenario is set, each trial
// runs under its own failpoint::Injector seeded from the trial stream —
// injection decisions are per-trial deterministic and thread-invariant.

#include <cstdint>
#include <functional>
#include <vector>

#include "agents/codegen_agent.hpp"
#include "agents/pipeline.hpp"
#include "common/cache/cache.hpp"
#include "common/trace.hpp"
#include "eval/suite.hpp"

namespace qcgen::eval {

struct RunnerOptions;

/// Derives the independent RNG stream for trial (case_idx, sample_idx)
/// from the experiment seed via two chained SplitMix64 finalizations.
/// Collision-free in practice across experiment-sized matrices and
/// stable across platforms (pure 64-bit integer mixing).
std::uint64_t trial_seed(std::uint64_t seed, std::uint64_t case_idx,
                         std::uint64_t sample_idx) noexcept;

/// A degradation-ladder step attributed to the trial it happened in
/// (case_idx/sample_idx are 0 for matrix-level events like the oracle
/// fallback, whose `event.stage` is "oracle").
struct DegradationRecord {
  std::size_t case_idx = 0;
  std::size_t sample_idx = 0;
  agents::DegradationEvent event;
  friend bool operator==(const DegradationRecord&,
                         const DegradationRecord&) = default;
};

/// Structured record of a trial that did not complete.
struct TrialFailure {
  std::size_t case_idx = 0;
  std::size_t sample_idx = 0;
  std::string stage;  ///< pipeline stage, or "trial" for task-level faults
  std::string site;   ///< fail-point site ("" for organic failures)
  int retries = 0;    ///< stage retries spent before giving up
  std::string what;
  friend bool operator==(const TrialFailure&, const TrialFailure&) = default;
};

/// One finished trial, as a run_trial_matrix visitor sees it. The
/// pointers are valid only for the duration of the visit.
struct Trial {
  std::size_t case_idx = 0;
  std::size_t sample_idx = 0;
  /// The trial's outcome; null when the trial threw.
  const agents::PipelineResult* result = nullptr;
  /// Set when the trial threw.
  const TrialFailure* failure = nullptr;
  /// The trial's own sink; null when the runner was handed no sink.
  const trace::TraceSink* trace = nullptr;
};

/// What a matrix run reports besides its trials.
struct TrialMatrix {
  /// Degradations taken outside any single trial — currently the
  /// reference-oracle fallback to static-only verification. Per-trial
  /// ladder steps live on each trial's result->degradations.
  std::vector<DegradationRecord> degradations;
  /// Lookup counts of the matrix's analysis memo (see run_trial_matrix).
  cache::Stats analysis_cache;
};

/// Runs the full (case x sample) trial matrix for one technique on a
/// thread pool (`options.threads`; 0 = all hardware threads) and calls
/// `visit` once per trial, in trial index order (row-major: case-major,
/// then sample), never concurrently. Workers claim trials in index
/// order; a trial that finishes before its predecessors waits until they
/// are visited, and each trial is freed once visited, so nothing holds
/// the whole matrix. Visits run on pool workers, outside the trial's
/// trace sink and fault-injection scope. An exception thrown by `visit`
/// is rethrown once the pool drains; later trials may go unvisited.
///
/// When `options.trace` is set, every trial records into its own
/// TraceSink (installed thread-locally around the trial body), which is
/// merged into `options.trace` right after its visit — in trial index
/// order, so the aggregate summary is bit-identical at any thread count.
///
/// The matrix owns an unbounded analysis cache (PipelineCaches::analysis)
/// and retrieval cache (TechniqueResources::retrieval_cache) for its
/// whole run, next to the QEC lifetime memo. Each memoizes a pure
/// function, a hit replays the trace its compute recorded, and every
/// fail point fires per call, so results, failures and per-trial trace
/// summaries equal those of uncached pipelines.
///
/// `options.chaos_scenario` (a failpoint::Scenario spec) arms fault
/// injection: one Injector per trial, seeded from the trial stream, plus
/// a serial matrix-level injector around the oracle prewarm. A case
/// whose reference oracle stays down degrades to static-only
/// verification (empty reference) rather than failing its trials.
TrialMatrix run_trial_matrix(const agents::TechniqueConfig& technique,
                             const std::vector<TestCase>& suite,
                             std::size_t samples_per_case,
                             const RunnerOptions& options,
                             const std::function<void(const Trial&)>& visit);

}  // namespace qcgen::eval
