// Serving-layer tests: request seeding, virtual-time admission control,
// workload generation, and the Server determinism contract — per-request
// results (program text, diagnostics, QEC plan) are bit-identical at any
// worker thread count and any enqueue order.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "eval/parallel.hpp"
#include "eval/suite.hpp"
#include "qasm/diagnostics.hpp"
#include "serve/admission.hpp"
#include "serve/report.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"

using namespace qcgen;

namespace {

/// Flattens every deterministic field of a result into one comparable
/// string. `include_virtual` adds the admission-model figures, which
/// depend on offer order (exclude them when comparing shuffled-order
/// submissions of the same request set).
std::string fingerprint(const serve::RequestResult& result,
                        bool include_virtual = true) {
  std::string out(serve::request_outcome_name(result.outcome));
  out += '|';
  out += serve::admission_level_name(result.level);
  out += '|';
  out += result.case_id;
  out += '|' + result.failure_stage + '|' + result.failure_site;
  if (include_virtual) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "|%.9f,%.9f,%.9f",
                  result.virtual_start, result.virtual_finish,
                  result.virtual_latency);
    out += buffer;
  }
  if (result.outcome == serve::RequestOutcome::kCompleted) {
    out += '|' + result.pipeline.generation.source;
    out += '|' + std::to_string(result.pipeline.passes_used);
    out += result.pipeline.semantic_ok ? "|sem" : "|nosem";
    for (const auto& pass : result.pipeline.trace) {
      out += '|' + qasm::diagnostics_to_json(pass.diagnostics).dump(0);
    }
    if (result.pipeline.qec.has_value()) {
      char buffer[128];
      std::snprintf(buffer, sizeof buffer, "|qec:%d,%d,%d,%.12g",
                    result.pipeline.qec->feasible ? 1 : 0,
                    result.pipeline.qec->distance,
                    static_cast<int>(result.pipeline.qec->decoder),
                    result.pipeline.qec->lifetime.logical_error_per_round);
      out += buffer;
    }
  }
  return out;
}

/// Small catalog: the first three gold cases.
std::vector<eval::TestCase> small_catalog() {
  const auto full = eval::semantic_suite();
  return {full.begin(), full.begin() + 3};
}

serve::Server::Options server_options(std::size_t threads,
                                      serve::AdmissionOptions admission) {
  serve::Server::Options options;
  options.technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  options.technique.max_passes = 2;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 100;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);
  options.admission = admission;
  options.threads = threads;
  options.seed = 99;
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// request_seed

TEST(RequestSeed, StableAndCollisionFree) {
  EXPECT_EQ(serve::request_seed(1, 2), serve::request_seed(1, 2));
  EXPECT_NE(serve::request_seed(1, 2), serve::request_seed(1, 3));
  EXPECT_NE(serve::request_seed(1, 2), serve::request_seed(2, 2));

  // Request streams must be disjoint from each other AND from the batch
  // scheduler's trial streams for the same experiment seed.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 64; ++id) {
    seeds.insert(serve::request_seed(2025, id));
    seeds.insert(eval::trial_seed(2025, id, 0));
    seeds.insert(eval::trial_seed(2025, 0, id));
  }
  EXPECT_EQ(seeds.size(), 64u * 3 - 1);  // trial_seed(2025,0,0) counted twice
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(Admission, WalksTheLadderAsBacklogGrows) {
  serve::AdmissionOptions options;
  options.virtual_servers = 1;
  options.full_cost = 1.0;
  options.no_rag_cost = 1.0;
  options.static_only_cost = 1.0;
  options.no_rag_depth = 2;
  options.static_only_depth = 4;
  options.shed_depth = 6;
  serve::AdmissionController admission(options);

  // Eight simultaneous arrivals on one unit-cost server: depth grows by
  // one per admission, crossing every threshold.
  std::vector<serve::AdmissionLevel> levels;
  for (std::uint64_t id = 0; id < 8; ++id) {
    levels.push_back(admission.offer(id, 0.0).level);
  }
  const std::vector<serve::AdmissionLevel> expected = {
      serve::AdmissionLevel::kFull,       serve::AdmissionLevel::kFull,
      serve::AdmissionLevel::kNoRag,      serve::AdmissionLevel::kNoRag,
      serve::AdmissionLevel::kStaticOnly, serve::AdmissionLevel::kStaticOnly,
      serve::AdmissionLevel::kShed,       serve::AdmissionLevel::kShed};
  EXPECT_EQ(levels, expected);
  EXPECT_EQ(admission.offered(), 8u);
  EXPECT_EQ(admission.shed(), 2u);
  EXPECT_EQ(admission.admitted_at(serve::AdmissionLevel::kFull), 2u);
  EXPECT_EQ(admission.admitted_at(serve::AdmissionLevel::kNoRag), 2u);
  EXPECT_EQ(admission.admitted_at(serve::AdmissionLevel::kStaticOnly), 2u);

  // kNoRag records one pre-walked rung, kStaticOnly records two.
  EXPECT_EQ(admission.degradations().size(), 2u * 1 + 2u * 2);
  ASSERT_EQ(admission.shed_events().size(), 2u);
  EXPECT_EQ(admission.shed_events()[0].request_id, 6u);
  EXPECT_EQ(admission.shed_events()[1].depth, 6u);
}

TEST(Admission, BooksFcfsOntoModelServers) {
  serve::AdmissionOptions options = serve::AdmissionOptions::unlimited();
  options.virtual_servers = 2;
  options.full_cost = 1.0;
  serve::AdmissionController admission(options);

  const auto first = admission.offer(0, 0.0);
  const auto second = admission.offer(1, 0.0);
  const auto third = admission.offer(2, 0.0);
  EXPECT_DOUBLE_EQ(first.virtual_start, 0.0);
  EXPECT_DOUBLE_EQ(first.virtual_finish, 1.0);
  EXPECT_DOUBLE_EQ(second.virtual_start, 0.0);
  // Both servers busy: the third waits for the earliest free instant.
  EXPECT_DOUBLE_EQ(third.virtual_start, 1.0);
  EXPECT_DOUBLE_EQ(third.virtual_finish, 2.0);
  EXPECT_EQ(third.depth, 2u);
}

TEST(Admission, BacklogDrainsWhenArrivalsPause) {
  serve::AdmissionOptions options;
  options.virtual_servers = 1;
  options.no_rag_depth = 1;
  options.static_only_depth = 2;
  options.shed_depth = 3;
  serve::AdmissionController admission(options);

  EXPECT_EQ(admission.offer(0, 0.0).level, serve::AdmissionLevel::kFull);
  EXPECT_EQ(admission.offer(1, 0.0).level, serve::AdmissionLevel::kNoRag);
  // A long quiet gap retires the virtual backlog: admission recovers to
  // kFull without any explicit completion signal.
  EXPECT_EQ(admission.offer(2, 10.0).level, serve::AdmissionLevel::kFull);
  EXPECT_EQ(admission.offer(2, 10.0).depth, 1u);
}

TEST(Admission, RejectsInvalidOptions) {
  serve::AdmissionOptions options;
  options.no_rag_depth = 8;
  options.static_only_depth = 4;  // below no_rag_depth
  EXPECT_THROW(serve::AdmissionController{options}, QcgenError);
  serve::AdmissionOptions zero_servers;
  zero_servers.virtual_servers = 0;
  EXPECT_THROW(serve::AdmissionController{zero_servers}, QcgenError);
}

// ---------------------------------------------------------------------------
// Workload generators

TEST(Workload, DeterministicSortedAndInRange) {
  for (const auto process :
       {serve::ArrivalProcess::kPoisson, serve::ArrivalProcess::kBursty,
        serve::ArrivalProcess::kDiurnal}) {
    serve::WorkloadOptions options;
    options.process = process;
    options.count = 80;
    options.rate = 5.0;
    options.seed = 17;
    const auto a = serve::generate_arrivals(options, 7);
    const auto b = serve::generate_arrivals(options, 7);
    EXPECT_EQ(a, b) << arrival_process_name(process);
    ASSERT_EQ(a.size(), 80u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].request_id, i);
      EXPECT_LT(a[i].case_idx, 7u);
      EXPECT_GE(a[i].vt, 0.0);
      if (i > 0) {
        EXPECT_GE(a[i].vt, a[i - 1].vt);
      }
    }
  }
}

TEST(Workload, ZipfMixSkewsTowardLowIndices) {
  serve::WorkloadOptions options;
  options.count = 300;
  options.seed = 17;
  options.mix = serve::CaseMix::kZipf;
  const auto arrivals = serve::generate_arrivals(options, 6);
  std::vector<std::size_t> counts(6, 0);
  for (const auto& arrival : arrivals) ++counts[arrival.case_idx];
  EXPECT_GT(counts[0], counts[5]);
}

TEST(Workload, RejectsInvalidOptions) {
  const auto expect_rejected = [](auto mutate, const char* what) {
    serve::WorkloadOptions options;
    mutate(options);
    EXPECT_THROW((void)serve::generate_arrivals(options, 4),
                 InvalidArgumentError)
        << what;
  };
  expect_rejected([](auto& o) { o.count = 0; }, "count = 0");
  expect_rejected([](auto& o) { o.rate = 0.0; }, "rate = 0");
  expect_rejected([](auto& o) { o.rate = -1.0; }, "rate < 0");
  expect_rejected([](auto& o) { o.zipf_exponent = 0.0; }, "zipf_exponent = 0");
  expect_rejected([](auto& o) { o.zipf_exponent = -0.5; },
                  "zipf_exponent < 0");
  expect_rejected([](auto& o) { o.burst_factor = 0.5; }, "burst_factor < 1");
  expect_rejected([](auto& o) { o.burst_phase_mean = 0.0; },
                  "burst_phase_mean = 0");
  expect_rejected([](auto& o) { o.diurnal_period = 0.0; },
                  "diurnal_period = 0");
  expect_rejected([](auto& o) { o.diurnal_amplitude = 1.0; },
                  "diurnal_amplitude = 1");
  expect_rejected([](auto& o) { o.diurnal_amplitude = -0.1; },
                  "diurnal_amplitude < 0");
  EXPECT_THROW((void)serve::generate_arrivals({}, 0), InvalidArgumentError);
  // Validation is unconditional: a bad parameter for one process is
  // rejected even when another process is selected, so a bench flag typo
  // can never silently ride along.
  expect_rejected(
      [](auto& o) {
        o.process = serve::ArrivalProcess::kPoisson;
        o.burst_phase_mean = -2.0;
      },
      "bursty parameter under poisson");
}

// ---------------------------------------------------------------------------
// Server

TEST(Server, ResultsAreThreadCountInvariant) {
  const auto catalog = small_catalog();
  serve::AdmissionOptions admission;
  admission.virtual_servers = 1;
  admission.no_rag_depth = 2;
  admission.static_only_depth = 4;
  admission.shed_depth = 6;

  // Bunched arrivals so the ladder is exercised: the run mixes kFull,
  // kNoRag, kStaticOnly and kShed results.
  auto run = [&](std::size_t threads) {
    serve::Server server(server_options(threads, admission), catalog);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 12; ++id) {
      serve::Request request;
      request.id = id;
      request.test_case = catalog[id % catalog.size()];
      request.arrival_vt = 0.05 * static_cast<double>(id);
      futures.push_back(server.submit(std::move(request)));
    }
    server.drain();
    std::vector<std::string> prints;
    for (auto& future : futures) prints.push_back(fingerprint(future.get()));
    return prints;
  };

  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "request " << i;
  }
  // The constrained run really did mix admission levels.
  const auto any_with = [&](const char* label) {
    return std::any_of(serial.begin(), serial.end(),
                       [&](const std::string& print) {
                         return print.find(label) != std::string::npos;
                       });
  };
  EXPECT_TRUE(any_with("|full|"));
  EXPECT_TRUE(any_with("|static-only|"));
  EXPECT_TRUE(any_with("shed"));
}

TEST(Server, ResultsAreSubmissionOrderInvariant) {
  const auto catalog = small_catalog();
  // Unlimited admission: every request is admitted at kFull no matter
  // when it arrives, isolating the per-request seeding contract.
  const auto options =
      server_options(/*threads=*/2, serve::AdmissionOptions::unlimited());

  auto run = [&](const std::vector<std::uint64_t>& order) {
    serve::Server server(options, catalog);
    serve::Session session(server, /*session_id=*/1);
    std::vector<std::pair<std::uint64_t, std::future<serve::RequestResult>>>
        futures;
    for (const std::uint64_t id : order) {
      futures.emplace_back(
          id, session.submit(id, catalog[id % catalog.size()], 0.0));
    }
    server.drain();
    std::vector<std::pair<std::uint64_t, std::string>> prints;
    for (auto& [id, future] : futures) {
      prints.emplace_back(id,
                          fingerprint(future.get(), /*include_virtual=*/false));
    }
    std::sort(prints.begin(), prints.end());
    return prints;
  };

  const std::vector<std::uint64_t> forward = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint64_t> shuffled = {5, 2, 7, 0, 3, 6, 1, 4};
  const auto a = run(forward);
  const auto b = run(shuffled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second) << "request " << a[i].first;
  }
}

TEST(Server, ShedRequestsResolveImmediately) {
  const auto catalog = small_catalog();
  serve::AdmissionOptions admission;
  admission.no_rag_depth = 0;
  admission.static_only_depth = 0;
  admission.shed_depth = 0;  // shed everything
  serve::Server server(server_options(1, admission), catalog);

  serve::Request request;
  request.id = 42;
  request.test_case = catalog[0];
  auto future = server.submit(std::move(request));
  // No worker involvement: the future is ready before drain().
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto result = future.get();
  EXPECT_EQ(result.outcome, serve::RequestOutcome::kShed);
  EXPECT_EQ(result.level, serve::AdmissionLevel::kShed);
  EXPECT_EQ(result.id, 42u);
  server.drain();
  EXPECT_EQ(server.stats().submitted, 1u);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(Server, UncatalogedCasesRunStaticOnlyVerification) {
  const auto full = eval::semantic_suite();
  const auto catalog = small_catalog();
  serve::Server server(
      server_options(1, serve::AdmissionOptions::unlimited()), catalog);
  serve::Request request;
  request.id = 0;
  request.test_case = full[5];  // outside the prewarmed catalog
  auto future = server.submit(std::move(request));
  server.drain();
  const auto result = future.get();
  EXPECT_EQ(result.outcome, serve::RequestOutcome::kCompleted)
      << result.failure_stage << " / " << result.failure_site << " / "
      << result.failure_what;
  // Static-only: without a reference distribution the behavioural
  // verdict cannot be earned, only the syntactic one.
  EXPECT_EQ(result.level, serve::AdmissionLevel::kFull);
}

#if QCGEN_FAILPOINTS_ENABLED

TEST(Server, ChaosFailuresAreContainedAsStructuredOutcomes) {
  const auto catalog = small_catalog();
  auto options = server_options(2, serve::AdmissionOptions::unlimited());
  options.chaos_scenario = "llm.generate=error(1.0)";
  serve::Server server(options, catalog);
  std::vector<std::future<serve::RequestResult>> futures;
  for (std::uint64_t id = 0; id < 6; ++id) {
    serve::Request request;
    request.id = id;
    request.test_case = catalog[id % catalog.size()];
    futures.push_back(server.submit(std::move(request)));
  }
  server.drain();
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_EQ(result.outcome, serve::RequestOutcome::kFailed);
    EXPECT_FALSE(result.failure_stage.empty());
    EXPECT_FALSE(result.failure_what.empty());
  }
  EXPECT_EQ(server.stats().failed, 6u);
  EXPECT_EQ(server.stats().completed, 0u);
}

#endif  // QCGEN_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Cross-request caching

TEST(ServerCache, CachedResultsAreByteIdenticalToBypass) {
  const auto catalog = small_catalog();
  // Repeated cases so the caches actually earn hits; unlimited admission
  // so every request runs the full pipeline.
  auto run = [&](bool bypass, std::size_t capacity) {
    auto options = server_options(2, serve::AdmissionOptions::unlimited());
    options.cache.enabled = true;
    options.cache.bypass = bypass;
    options.cache.capacity = capacity;
    serve::Server server(options, catalog);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 9; ++id) {
      serve::Request request;
      request.id = id;
      request.test_case = catalog[id % catalog.size()];
      request.arrival_vt = 0.1 * static_cast<double>(id);
      futures.push_back(server.submit(std::move(request)));
    }
    server.drain();
    std::vector<std::string> prints;
    for (auto& future : futures) prints.push_back(fingerprint(future.get()));
    cache::Stats total;
    for (const auto& report : server.cache_reports()) {
      total.merge(report.stats);
    }
    if (bypass) {
      EXPECT_TRUE(server.cache_reports().empty());
    } else if (capacity == 0) {
      // The unbounded run really did serve hits.
      EXPECT_GT(total.hits, 0u);
      EXPECT_EQ(total.evictions, 0u);
    } else {
      // One entry per shard is far below the working set, so entries
      // are evicted; whether any lookup still hits depends on the
      // worker schedule, so hits are not asserted.
      EXPECT_GT(total.evictions, 0u);
    }
    return prints;
  };
  // Hit-equals-miss certification: the memoized runs, unbounded and
  // bounded, must be byte-identical to the same content-addressed
  // computes with no cache.
  const auto uncached = run(true, 0);
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    const auto cached = run(false, capacity);
    ASSERT_EQ(cached.size(), uncached.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i], uncached[i])
          << "request " << i << " at capacity " << capacity;
    }
  }
}

TEST(ServerCache, CountersAreThreadCountInvariantWhenUnbounded) {
  const auto catalog = small_catalog();
  auto run = [&](std::size_t threads) {
    auto options = server_options(threads, serve::AdmissionOptions::unlimited());
    options.cache.enabled = true;
    serve::Server server(options, catalog);
    serve::Session session(server, /*session_id=*/3);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 10; ++id) {
      futures.push_back(
          session.submit(id, catalog[id % catalog.size()],
                         0.05 * static_cast<double>(id)));
    }
    server.drain();
    for (auto& future : futures) future.get();
    return server.cache_reports();
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].layer, parallel[i].layer);
    // Unbounded caches: hit/miss totals are a pure function of the
    // unique key set — identical at any worker interleaving.
    EXPECT_EQ(serial[i].stats, parallel[i].stats) << serial[i].layer;
    EXPECT_EQ(serial[i].stats.evictions, 0u);
  }
}

TEST(ServerCache, ChaosAndCachingAreMutuallyExclusive) {
  const auto catalog = small_catalog();
  auto options = server_options(1, serve::AdmissionOptions::unlimited());
  options.chaos_scenario = "llm.generate=error(1.0)";
  options.cache.enabled = true;
  EXPECT_THROW(serve::Server(options, catalog), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Session

TEST(Session, AutoIdsEmbedTheSessionId) {
  const auto catalog = small_catalog();
  serve::Server server(
      server_options(2, serve::AdmissionOptions::unlimited()), catalog);
  serve::Session first(server, 1);
  serve::Session second(server, 2);
  auto a0 = first.submit(catalog[0], 0.0);
  auto a1 = first.submit(catalog[1], 0.0);
  auto b0 = second.submit(catalog[2], 0.0);
  server.drain();
  EXPECT_EQ(a0.get().id, (std::uint64_t{1} << 40) | 0);
  EXPECT_EQ(a1.get().id, (std::uint64_t{1} << 40) | 1);
  EXPECT_EQ(b0.get().id, (std::uint64_t{2} << 40) | 0);
}

TEST(Session, AutoIdExhaustionFailsLoudly) {
  const auto catalog = small_catalog();
  serve::Server server(
      server_options(1, serve::AdmissionOptions::unlimited()), catalog);
  // Pre-seed the counter one below the 2^40 boundary: the last id in the
  // session's span is handed out, the next submit throws instead of
  // wrapping into session 2's id space.
  serve::Session session(server, /*session_id=*/1, {},
                         serve::Session::kAutoIdSpan - 1);
  auto last = session.submit(catalog[0], 0.0);
  EXPECT_THROW(session.submit(catalog[1], 0.0), QcgenError);
  server.drain();
  EXPECT_EQ(last.get().id,
            (std::uint64_t{1} << 40) | (serve::Session::kAutoIdSpan - 1));
  // Explicit-id submission is unaffected by auto-id exhaustion.
  auto explicit_id = session.submit(7, catalog[2], 0.0);
  server.drain();
  EXPECT_EQ(explicit_id.get().id, 7u);
}

TEST(Session, RejectsFirstAutoIdPastTheSpan) {
  const auto catalog = small_catalog();
  serve::Server server(
      server_options(1, serve::AdmissionOptions::unlimited()), catalog);
  EXPECT_THROW(serve::Session(server, 1, {}, serve::Session::kAutoIdSpan + 1),
               InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Report builders

TEST(Report, QuantilesAreNearestRankAndMonotonic) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(static_cast<double>(i));
  const auto q = serve::LatencyQuantiles::of(std::move(values));
  EXPECT_DOUBLE_EQ(q.p50, 50.0);
  EXPECT_DOUBLE_EQ(q.p90, 90.0);
  EXPECT_DOUBLE_EQ(q.p99, 99.0);
  EXPECT_DOUBLE_EQ(q.p999, 100.0);
  EXPECT_DOUBLE_EQ(q.max, 100.0);
  EXPECT_DOUBLE_EQ(q.mean, 50.5);
  const auto empty = serve::LatencyQuantiles::of({});
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(Report, SummaryCountsMatchServerStats) {
  const auto catalog = small_catalog();
  serve::AdmissionOptions admission;
  admission.virtual_servers = 1;
  admission.no_rag_depth = 1;
  admission.static_only_depth = 2;
  admission.shed_depth = 3;
  serve::Server server(server_options(2, admission), catalog);
  std::vector<std::future<serve::RequestResult>> futures;
  for (std::uint64_t id = 0; id < 6; ++id) {
    serve::Request request;
    request.id = id;
    request.test_case = catalog[id % catalog.size()];
    futures.push_back(server.submit(std::move(request)));
  }
  server.drain();
  std::vector<serve::RequestResult> results;
  for (auto& future : futures) results.push_back(future.get());

  const auto summary = serve::ServingSummary::from("test", 1.0, server, results);
  EXPECT_EQ(summary.requests, 6u);
  EXPECT_EQ(summary.shed, summary.shed_events.size());
  EXPECT_EQ(summary.admitted_full + summary.admitted_no_rag +
                summary.admitted_static_only + summary.shed,
            summary.requests);
  EXPECT_EQ(summary.completed + summary.failed,
            summary.requests - summary.shed);
  EXPECT_LE(summary.semantic_ok, summary.completed);
  EXPECT_GE(summary.virtual_latency.max, summary.virtual_latency.p50);
  // Events come out sorted by request id.
  for (std::size_t i = 1; i < summary.degradation_events.size(); ++i) {
    EXPECT_LE(summary.degradation_events[i - 1].request_id,
              summary.degradation_events[i].request_id);
  }
}
