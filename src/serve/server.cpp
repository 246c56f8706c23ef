#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace qcgen::serve {

namespace {

// Salts the server seed into an independent per-request chaos stream, so
// arming a scenario never perturbs the pipelines' own RNG streams (the
// same separation eval/parallel.cpp keeps for trials).
constexpr std::uint64_t kServeChaosSalt = 0x39d2f1b7a85c64e9ULL;

/// Shards per cache layer: spreads worker contention across locks.
constexpr std::size_t kCacheShards = 8;

const sim::Distribution kEmptyReference;

/// Every fail-point site in the request path, with the starting rung an
/// open breaker there takes away: no-rag, core-lints, static-only or
/// skip-QEC. Null means fail fast: the site has no cheaper rung. The
/// breaker board tracks every site whether or not a chaos scenario
/// mentions it (organic failures attribute sites too, via
/// PipelineStageError::site). Fail-fast sites come first, in precedence
/// order: the first open one names the failure.
constexpr std::pair<const char*, bool agents::Rungs::*> kSiteTable[] = {
    {"llm.generate", nullptr},
    {"analyzer.parse", nullptr},
    {"pool.task", nullptr},
    {"retrieval.query", &agents::Rungs::rag},
    {"analyzer.abstract", &agents::Rungs::abstract_lints},
    {"analyzer.simulate", &agents::Rungs::behavioral},
    {"oracle.reference", &agents::Rungs::behavioral},
    {"qec.decode", &agents::Rungs::qec},
};

/// The sites this request failed at, for the breaker event log: the
/// terminal failure site (kFailed only) plus every site that forced a
/// degradation-ladder step (completed-with-degradations requests carry
/// their fault evidence there). Deduplicated, sorted.
std::vector<std::string> failed_sites_of(const RequestResult& result) {
  std::vector<std::string> sites;
  if (result.outcome == RequestOutcome::kFailed &&
      !result.failure_site.empty()) {
    sites.push_back(result.failure_site);
  }
  for (const agents::DegradationEvent& event : result.pipeline.degradations) {
    if (!event.site.empty()) sites.push_back(event.site);
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

/// The sites a completed request demonstrably exercised without
/// incident — the breaker's *positive* evidence. Sites in neither this
/// list nor failed_sites are no-signal: a request that skipped a stage
/// (static-only verify, semantic failure before QEC, rag off) says
/// nothing about that site's health. oracle.reference never appears:
/// the catalog is prewarmed at construction, so serving requests only
/// ever do the const cache lookup.
std::vector<std::string> succeeded_sites_of(
    const RequestResult& result, const agents::Rungs& rungs,
    const agents::TechniqueConfig& technique,
    const std::vector<std::string>& failed_sites) {
  std::vector<std::string> sites;
  if (result.outcome != RequestOutcome::kCompleted) {
    return sites;  // an abort vouches for nothing
  }
  // Stages every completed pipeline run exercises.
  sites = {"analyzer.parse", "llm.generate", "pool.task"};
  if (rungs.abstract_lints && result.pipeline.syntactic_ok) {
    sites.push_back("analyzer.abstract");
  }
  bool rag_prewalked = false;
  bool verify_degraded = false;
  bool qec_degraded = false;
  for (const agents::DegradationEvent& event : result.pipeline.degradations) {
    if (event.stage == "generate" && event.reason == "budget-pressure") {
      rag_prewalked = true;
    }
    if (event.stage == "verify") verify_degraded = true;
    if (event.stage == "qec") qec_degraded = true;
  }
  if (rungs.rag && !rag_prewalked &&
      (technique.rag_api || technique.rag_guides)) {
    sites.push_back("retrieval.query");
  }
  const bool any_syntactic_pass = std::any_of(
      result.pipeline.trace.begin(), result.pipeline.trace.end(),
      [](const agents::PassTrace& pass) { return pass.syntactic_ok; });
  if (rungs.behavioral && any_syntactic_pass && !verify_degraded) {
    sites.push_back("analyzer.simulate");
  }
  // The QEC stage only runs after a semantically-verified pass (the same
  // condition the pipeline gates on).
  if (rungs.qec && result.pipeline.semantic_ok && !qec_degraded) {
    sites.push_back("qec.decode");
  }
  std::sort(sites.begin(), sites.end());
  // A site cannot be evidence for and against at once: failures win.
  std::erase_if(sites, [&](const std::string& site) {
    return std::binary_search(failed_sites.begin(), failed_sites.end(), site);
  });
  return sites;
}

}  // namespace

struct Server::QueuedRequest {
  Request request;
  AdmissionTicket ticket;
  std::promise<RequestResult> promise;
  /// Wall-clock submit instant; completion - submit is the reported
  /// serving latency (queue wait + execution).
  std::chrono::steady_clock::time_point submitted_at;
};

Server::Server(Options options, const std::vector<eval::TestCase>& catalog)
    : options_(std::move(options)),
      analyzers_(options_.analyzer),
      admission_(options_.admission),
      pool_(options_.threads) {
  require(!options_.qec.has_value() || options_.device.has_value(),
          "Server: qec options require a device");
  require(options_.chaos_scenario.empty() || !options_.cache.enabled,
          "Server: chaos_scenario and cache.enabled are mutually exclusive "
          "(injected faults are per-request; memoized computes are shared)");
  if (options_.cache.enabled && !options_.cache.bypass) {
    const cache::CacheOptions cache_options{
        .capacity = options_.cache.capacity, .shards = kCacheShards};
    generation_cache_ =
        std::make_shared<agents::GenerationCache>(cache_options);
    retrieval_cache_ = std::make_shared<llm::RetrievalCache>(cache_options);
    analysis_cache_ = std::make_shared<agents::AnalysisCache>(cache_options);
  }
  // The knowledge state and stores are the process's shared ones; the
  // handle carries this server's retrieval cache (null when off).
  resources_ = std::make_shared<const agents::TechniqueResources>(
      options_.technique, retrieval_cache_);
  scenario_ = failpoint::ScenarioScope::arm(options_.chaos_scenario);
  if (options_.breaker.enabled) {
    BreakerOptions breaker_options = options_.breaker;
    if (breaker_options.seed == 0) breaker_options.seed = options_.seed;
    std::vector<std::string> sites;
    for (const auto& [site, rung] : kSiteTable) sites.emplace_back(site);
    breaker_ = std::make_unique<BreakerBoard>(breaker_options, sites);
  }
  // Prewarm makes reference_for read-only for catalog cases, so worker
  // threads can look references up concurrently; the prompt index fixes
  // each case's scaffold slot independently of request order.
  oracle_.prewarm(catalog);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    prompt_index_.emplace(catalog[i].id, i);
  }
}

Server::~Server() {
  // Destruction-safe: drain() can throw (e.g. an injected "serve.drain"
  // fault in the destruction tests, or a sink merge failure); contain it
  // so the destructor never terminates the process. The pool teardown
  // below still joins every worker — pool_ is the last member, so tasks
  // finish against live server state either way.
  try {
    drain();
  } catch (...) {
    trace::Metrics::counter("serve.drain_failures");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.drain_failures;
  }
  if (breaker_ != nullptr) breaker_->finalize();
}

std::future<RequestResult> Server::submit(Request request) {
  const AdmissionTicket ticket =
      admission_.offer(request.id, request.arrival_vt);
  const double deadline = request.options.deadline_units > 0.0
                              ? request.options.deadline_units
                              : options_.default_deadline_units;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    if (ticket.level == AdmissionLevel::kShed) ++stats_.shed;
    // Eager lifecycle booking (may already exist: cancel-before-submit).
    Lifecycle& lifecycle = lifecycles_[request.id];
    lifecycle.deadline_units = deadline;
    lifecycle.budget = std::make_shared<cancel::DeadlineBudget>(deadline);
    lifecycle.done = ticket.level == AdmissionLevel::kShed;
  }
  std::promise<RequestResult> promise;
  std::future<RequestResult> future = promise.get_future();
  if (ticket.level == AdmissionLevel::kShed) {
    RequestResult result;
    result.id = request.id;
    result.case_id = request.test_case.id;
    result.outcome = RequestOutcome::kShed;
    result.level = AdmissionLevel::kShed;
    result.deadline_units = deadline;
    promise.set_value(std::move(result));
    return future;
  }
  // Shed requests never execute and must not be registered: the board's
  // decide() gate waits on registered requests to report.
  if (breaker_ != nullptr) {
    breaker_->register_request(request.id, ticket.virtual_start,
                               ticket.virtual_finish);
  }
  // std::function needs a copyable callable, so the task holds its
  // request (and the move-only promise) through a shared_ptr.
  auto item = std::make_shared<QueuedRequest>(
      QueuedRequest{std::move(request), ticket, std::move(promise),
                    std::chrono::steady_clock::now()});
  pool_.submit([this, item] { execute(*item); });
  return future;
}

void Server::cancel(std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  lifecycles_[request_id].source.request_cancel();
  trace::Metrics::counter("serve.cancel_requests");
}

void Server::execute(QueuedRequest& item) {
  // Per-request sink so the aggregate summary can merge in id order.
  std::unique_ptr<trace::TraceSink> sink;
  if (options_.trace != nullptr) {
    sink = std::make_unique<trace::TraceSink>(options_.trace->keep_events());
  }
  RequestResult result;
  {
    trace::SinkScope scope(sink.get());
    result = run_request(item.request, item.ticket);
  }
  result.wall_latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    item.submitted_at)
          .count();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (result.outcome) {
      case RequestOutcome::kCompleted:
        ++stats_.completed;
        if (result.pipeline.semantic_ok) ++stats_.semantic_ok;
        break;
      case RequestOutcome::kDeadlineExceeded:
        ++stats_.deadline_exceeded;
        break;
      case RequestOutcome::kCancelled:
        ++stats_.cancelled;
        break;
      default:
        ++stats_.failed;
        break;
    }
    lifecycles_[result.id].done = true;
    if (sink != nullptr) sinks_[result.id] = std::move(sink);
  }
  item.promise.set_value(std::move(result));
}

RequestResult Server::run_request(const Request& request,
                                  const AdmissionTicket& ticket) {
  RequestResult result;
  result.id = request.id;
  result.case_id = request.test_case.id;
  result.level = ticket.level;
  result.virtual_start = ticket.virtual_start;
  result.virtual_finish = ticket.virtual_finish;
  result.virtual_latency = ticket.virtual_finish - request.arrival_vt;

  // Install this request's cancellation token and deadline budget for
  // the span of the run (booked at submit; the defensive [] covers only
  // impossible orderings).
  cancel::CancellationToken token;
  std::shared_ptr<cancel::DeadlineBudget> budget;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Lifecycle& lifecycle = lifecycles_[request.id];
    if (lifecycle.budget == nullptr) {
      lifecycle.budget = std::make_shared<cancel::DeadlineBudget>();
    }
    token = lifecycle.source.token();
    budget = lifecycle.budget;
    result.deadline_units = lifecycle.deadline_units;
  }
  cancel::CancelScope cancel_scope(token, budget.get());

  // Per-request injector on an independent chaos stream: injection
  // decisions depend only on (seed, id), never the worker schedule.
  const failpoint::ScenarioScope chaos(
      scenario_, request_seed(options_.seed ^ kServeChaosSalt, request.id));

  // Outlives the try so an aborted run's partial degradation ladder (the
  // request's per-site fault evidence) can be salvaged in the catch.
  std::optional<agents::MultiAgentPipeline> pipeline;
  // The rungs this request's pipeline starts on. Admission pre-walks the
  // generate/repair ladder's first rung, and static-only admission the
  // verify ladder's; behavioral is narrowed to "has a reference" once
  // the reference is looked up.
  agents::Rungs rungs{
      .rag = ticket.level == AdmissionLevel::kFull,
      .abstract_lints = options_.analyzer.analysis.abstract_lints,
      .behavioral = ticket.level != AdmissionLevel::kStaticOnly,
      .qec = request.options.qec && options_.qec.has_value()};
  std::string fail_fast_site;  ///< first open fail-fast site ("" = run)
  try {
    // Born-cancelled requests resolve here, before the breaker gate —
    // they never block on (or contribute signal to) the event log.
    cancel::checkpoint("serve.request");

    // Breaker verdicts at this request's virtual arrival. Open sites
    // short-circuit to their degraded path; half-open probes run the
    // real path and their outcome drives the close / re-open edge.
    std::map<std::string, BreakerDecision> verdicts;
    if (breaker_ != nullptr) verdicts = breaker_->decide(request.id);
    for (const auto& [site, verdict] : verdicts) {
      if (verdict.short_circuit) result.breaker_short_circuits.push_back(site);
      if (verdict.probing) result.breaker_probes.push_back(site);
    }
    for (const auto& [site, rung] : kSiteTable) {
      const auto it = verdicts.find(site);
      if (it == verdicts.end() || !it->second.short_circuit) continue;
      if (rung != nullptr) {
        rungs.*rung = false;
      } else if (fail_fast_site.empty()) {
        // A structured kFailed beats burning deadline budget on a path
        // that has been failing persistently.
        fail_fast_site = site;
      }
    }

    // Requests for cases outside the prewarmed catalog verify static-
    // only too: only the const cache lookup is worker-safe (reference_for
    // would lazily compile the gold program, a mutation we must not race
    // across workers).
    // Catalog cases also hand generation the gold program the prewarm
    // built; any other case builds its own.
    const sim::Distribution* reference = &kEmptyReference;
    std::shared_ptr<const llm::GoldProgram> gold;
    std::size_t prompt_index = prompt_index_.size();
    if (const auto found = prompt_index_.find(request.test_case.id);
        found != prompt_index_.end()) {
      prompt_index = found->second;
      if (const sim::Distribution* cached = oracle_.find(request.test_case.id);
          cached != nullptr) {
        reference = cached;
      }
      gold = oracle_.gold(request.test_case.id);
    }
    rungs.behavioral = rungs.behavioral && !reference->empty();

    if (!fail_fast_site.empty()) {
      result.outcome = RequestOutcome::kFailed;
      result.failure_stage = "request";
      result.failure_site = fail_fast_site;
      result.failure_what = "circuit breaker open at " + fail_fast_site;
      trace::Metrics::counter("breaker.fail_fast");
      trace::Metrics::counter("serve.request_failures");
    } else {
      failpoint::trip("pool.task");
      pipeline.emplace(options_.technique, resources_, analyzers_,
                       options_.qec, options_.device,
                       request_seed(options_.seed, request.id));
      pipeline->set_resilience(options_.resilience);
      // bypass mode leaves both cache pointers null: the same content-
      // addressed computes run, nothing is memoized. The QEC lifetime
      // memo is shared in every cache mode (it is not content-addressed).
      pipeline->set_caches({options_.cache.enabled, generation_cache_,
                            analysis_cache_, qec_lifetime_});
      result.pipeline = pipeline->run(request.test_case.task, *reference,
                                      prompt_index, gold, rungs);
      result.outcome = RequestOutcome::kCompleted;
      trace::Metrics::counter("serve.completed");
    }
  } catch (const std::exception& error) {
    agents::RunFailure failure = agents::read_run_failure(error, "request");
    result.outcome =
        !failure.cancelled.has_value() ? RequestOutcome::kFailed
        : *failure.cancelled == cancel::Cause::kDeadlineExceeded
            ? RequestOutcome::kDeadlineExceeded
            : RequestOutcome::kCancelled;
    result.failure_stage = std::move(failure.stage);
    result.failure_site = std::move(failure.site);
    result.failure_what = std::move(failure.what);
    trace::Metrics::counter(
        result.outcome == RequestOutcome::kFailed ? "serve.request_failures"
        : result.outcome == RequestOutcome::kCancelled
            ? "serve.cancelled"
            : "serve.deadline_exceeded");
  }
  // An aborted run (deadline, cancel, stage error) discards its partial
  // pipeline result, but the ladder steps it took up to the abort are
  // this request's per-site fault evidence — copy them off the wreck so
  // failed_sites_of and the lifecycle report still see them.
  if (result.outcome != RequestOutcome::kCompleted && pipeline.has_value()) {
    result.pipeline.degradations = pipeline->last_degradations();
  }
  result.budget_consumed_units = budget->consumed();
  // Every registered request reports exactly once, on every outcome
  // path — the decide() gate of later-arriving requests depends on it.
  if (breaker_ != nullptr) {
    const std::vector<std::string> failed = failed_sites_of(result);
    breaker_->report(request.id, failed,
                     succeeded_sites_of(result, rungs, options_.technique,
                                        failed));
  }
  return result;
}

void Server::drain(double budget_units) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, lifecycle] : lifecycles_) {
      if (lifecycle.done || lifecycle.budget == nullptr) continue;
      lifecycle.budget->tighten(budget_units);
    }
  }
  drain();
}

void Server::drain() {
  // Destruction-test hook: an armed "serve.drain" fault makes this throw
  // before the wait, exercising the destructor's containment path.
  failpoint::trip("serve.drain");
  pool_.wait_idle();
  if (options_.trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // Request-id order, not completion order: the merged summary must be
  // independent of the worker schedule.
  for (const auto& [id, sink] : sinks_) {
    options_.trace->merge(*sink);
  }
  sinks_.clear();
}

std::vector<BreakerTransition> Server::breaker_transitions() const {
  if (breaker_ == nullptr) return {};
  return breaker_->transitions();
}

std::vector<CacheLayerReport> Server::cache_reports() const {
  std::vector<CacheLayerReport> reports;
  const auto add = [&](const char* layer, const auto& cache_ptr) {
    if (cache_ptr == nullptr) return;
    reports.push_back({layer, cache_ptr->stats()});
  };
  add("generation", generation_cache_);
  add("retrieval", retrieval_cache_);
  add("analysis", analysis_cache_);
  return reports;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace qcgen::serve
