#pragma once
// Long-lived server core: an asynchronous request engine in front of the
// thread pool.
//
// One Server owns, for its lifetime:
//   * the handles every request reads through: an
//     agents::TechniqueResources over the process-wide knowledge state
//     and BM25 stores (carrying this server's retrieval cache), and an
//     eval::ReferenceOracle prewarmed over the catalog of gold cases it
//     serves, whose golds and references are the process-wide ones;
//   * an AdmissionController making deterministic virtual-time
//     admission/shedding decisions at enqueue time;
//   * a ThreadPool whose FIFO task queue holds the admitted requests:
//     each pool task owns one request, so requests start in submit
//     order.
//
// Each request executes on its own cheap per-request pipeline seeded by
// request_seed(seed, id), so any interleaving of worker execution — any
// --threads value, any enqueue order — yields bit-identical per-request
// results. The admission level and the site table in server.cpp (each
// open breaker's action: fail-fast, no-rag, core-lints, static-only or
// skip-QEC) pick the rungs a request's pipeline starts on, and sheds
// resolve the request future immediately with RequestOutcome::kShed.

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agents/pipeline.hpp"
#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "eval/judge.hpp"
#include "eval/suite.hpp"
#include "serve/admission.hpp"
#include "serve/breaker.hpp"
#include "serve/request.hpp"

namespace qcgen::serve {

/// Cross-request memoization configuration. When enabled, the server
/// shares three content-addressed caches across every session and
/// worker: generation (hash(prompt, technique, knowledge version) ->
/// program), retrieval (hash(query, corpus version, k) -> BM25 hits)
/// and analysis (hash(source, lint config) -> diagnostics; plus judged
/// distributions keyed by circuit digest). Hits are byte-identical to
/// misses: cached computes are content-seeded pure functions, so a
/// cache (and its eviction) can only change latency, never results.
/// Mutually exclusive with chaos scenarios (injected faults are
/// per-request, memoized computes are not).
struct CacheConfig {
  bool enabled = false;
  /// Per-shard entry capacity, evicted least-recently-used first;
  /// 0 = unbounded. Unbounded keeps hit/miss totals thread-count
  /// invariant (misses == unique keys). When capacity > 0, which
  /// computes rerun depends on the worker schedule, so the spans and
  /// counters recorded inside memoized computes (analyze.*, bm25.*,
  /// generation) count once per compute and a server trace summary is
  /// thread-count invariant only at capacity 0.
  std::size_t capacity = 0;
  /// Certification mode: run the content-addressed compute path with no
  /// memoization at all — the "uncached path" tests compare cached runs
  /// against byte-for-byte.
  bool bypass = false;
};

/// Live statistics of one cache layer, for benches and tests.
struct CacheLayerReport {
  std::string layer;  ///< "generation", "retrieval", "analysis"
  cache::Stats stats;
};

class Server {
 public:
  struct Options {
    agents::TechniqueConfig technique;
    agents::SemanticAnalyzerAgent::Options analyzer;
    /// QEC planning stage (applied per request when its options ask for
    /// it); requires `device`.
    std::optional<agents::QecDecoderAgent::Options> qec;
    std::optional<agents::DeviceTopology> device;
    agents::ResilienceOptions resilience;
    AdmissionOptions admission;
    std::uint64_t seed = 2025;
    /// Worker threads (0 = all hardware threads). Per-request results
    /// are bit-identical at any value.
    std::size_t threads = 0;
    /// Fault-injection scenario armed per request (failpoint::Scenario
    /// grammar; one injector per request seeded from its stream, so
    /// injection decisions are request-deterministic). "" disarms.
    /// Mutually exclusive with cache.enabled.
    std::string chaos_scenario;
    /// Cross-request memoization (off by default; serving only).
    CacheConfig cache;
    /// Per-site circuit breakers over the fail-point sites (off by
    /// default). Verdicts are virtual-time deterministic; seed 0 in the
    /// nested options inherits the server seed. Composes with both chaos
    /// scenarios and caching — with no failures every breaker stays
    /// closed and the configuration is behaviour-identical to off.
    BreakerOptions breaker;
    /// Default virtual-time deadline armed for every request whose
    /// RequestOptions::deadline_units is unset (<= 0 here = no default
    /// deadline). Measured in abstract budget units (injected delays,
    /// retry backoff, stage costs), never the wall clock.
    double default_deadline_units = 0.0;
    /// Optional aggregate sink: every request records into its own
    /// TraceSink, merged into this one in request-id order on drain()
    /// — the merged summary is thread-count invariant.
    trace::TraceSink* trace = nullptr;
  };

  /// Deterministic wall-clock-free operation counters.
  struct Stats {
    std::size_t submitted = 0;  ///< offers, including sheds
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    std::size_t semantic_ok = 0;  ///< completed with a passing verdict
    std::size_t deadline_exceeded = 0;
    std::size_t cancelled = 0;
    /// Destruction-path drains that threw and were contained (the
    /// destructor must never let an exception escape).
    std::size_t drain_failures = 0;
  };

  /// Builds the shared resources and prewarms the reference oracle over
  /// `catalog` (the gold cases this server can verify behaviourally; a
  /// request for a case outside the catalog still runs, verified
  /// static-only). The catalog also fixes each case's prompt index,
  /// which feeds the CoT hand-written-scaffold rule.
  Server(Options options, const std::vector<eval::TestCase>& catalog);

  /// Drains in-flight work before tearing down the pool. Destruction-
  /// safe: a drain that throws is contained (stats().drain_failures, the
  /// "serve.drain_failures" trace counter) — never an escaping
  /// exception; the pool teardown still joins every worker.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Books an admission decision (sequential, virtual-time) and, when
  /// admitted, queues the request for asynchronous execution. The future
  /// resolves when the request completes, fails, or — immediately — when
  /// it is shed. Callers should submit in non-decreasing arrival_vt.
  std::future<RequestResult> submit(Request request);

  /// Requests cooperative cancellation of `request_id`: the request's
  /// next checkpoint resolves it with RequestOutcome::kCancelled.
  /// Callable before submit(id) — the request is then "born cancelled"
  /// and resolves deterministically at its first checkpoint — as well as
  /// mid-flight (best-effort: it may complete first). Unknown ids are
  /// remembered, not errors.
  void cancel(std::uint64_t request_id);

  /// Blocks until every queued request finished, then folds per-request
  /// trace sinks into Options::trace in request-id order.
  void drain();

  /// Deadline-bounded drain: tightens every in-flight request's budget
  /// to at most `budget_units` more virtual units (0 cancels the rest at
  /// their next checkpoint), then drains. Outcomes on this path depend
  /// on how far each request had progressed when the tighten landed —
  /// a shutdown affordance, not a deterministic-report path.
  void drain(double budget_units);

  /// Breaker transition history (empty when breakers are disabled).
  /// Deterministic once drained.
  std::vector<BreakerTransition> breaker_transitions() const;

  const AdmissionController& admission() const noexcept { return admission_; }
  /// Per-layer cache statistics in fixed layer order generation/
  /// retrieval/analysis. Empty when caching is disabled or bypassed.
  /// Call after drain(): unbounded totals are only schedule-invariant
  /// once every in-flight compute has resolved.
  std::vector<CacheLayerReport> cache_reports() const;
  Stats stats() const;

 private:
  /// Per-request lifecycle state, created eagerly by cancel() or submit()
  /// (whichever runs first) so cancel-before-submit is well-defined.
  struct Lifecycle {
    cancel::CancelSource source;
    std::shared_ptr<cancel::DeadlineBudget> budget;  ///< set at submit
    double deadline_units = 0.0;
    bool done = false;
  };

  /// An admitted request, owned by the pool task that executes it.
  struct QueuedRequest;

  void execute(QueuedRequest& item);
  RequestResult run_request(const Request& request,
                            const AdmissionTicket& ticket);

  Options options_;
  std::shared_ptr<const agents::TechniqueResources> resources_;
  /// Both analyze rungs' compiled configuration, shared by every request.
  agents::AnalyzerKit analyzers_;
  std::shared_ptr<agents::GenerationCache> generation_cache_;
  std::shared_ptr<llm::RetrievalCache> retrieval_cache_;
  std::shared_ptr<agents::AnalysisCache> analysis_cache_;
  /// Shared by every request's pipeline in every cache mode; each
  /// decoder rung's estimate is filled by the first request to plan it.
  std::shared_ptr<agents::QecLifetimeMemo> qec_lifetime_ =
      std::make_shared<agents::QecLifetimeMemo>();
  eval::ReferenceOracle oracle_;
  std::map<std::string, std::size_t> prompt_index_;  ///< catalog order
  std::shared_ptr<const failpoint::Scenario> scenario_;
  std::unique_ptr<BreakerBoard> breaker_;  ///< null unless enabled
  AdmissionController admission_;

  mutable std::mutex mutex_;  ///< stats, lifecycles, sinks
  Stats stats_;
  std::map<std::uint64_t, Lifecycle> lifecycles_;
  std::map<std::uint64_t, std::unique_ptr<trace::TraceSink>> sinks_;

  ThreadPool pool_;  ///< last member: workers must die before state
};

}  // namespace qcgen::serve
