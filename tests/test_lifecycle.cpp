// Request-lifecycle tests: deadline propagation, cooperative
// cancellation and per-site circuit breakers in the serving layer.
//
// The contracts under test: deadlines and cancellations resolve as
// structured outcomes (never hung workers or discarded exceptions);
// breaker verdicts and transition logs are bit-identical at any worker
// thread count; a cancelled single-flight cache compute never publishes;
// and Server destruction is safe even when drain() itself faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "common/cache/cache.hpp"
#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "eval/suite.hpp"
#include "serve/breaker.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

using namespace qcgen;

namespace {

std::vector<eval::TestCase> small_catalog() {
  const auto full = eval::semantic_suite();
  return {full.begin(), full.begin() + 3};
}

serve::Server::Options lifecycle_options(std::size_t threads) {
  serve::Server::Options options;
  options.technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  options.technique.max_passes = 2;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 100;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);
  options.admission = serve::AdmissionOptions::unlimited();
  options.threads = threads;
  options.seed = 314;
  return options;
}

/// Deterministic digest of one result's lifecycle-relevant fields.
std::string lifecycle_fingerprint(const serve::RequestResult& result) {
  std::string out(serve::request_outcome_name(result.outcome));
  out += '|' + result.case_id + '|' + result.failure_site;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "|%.9f", result.budget_consumed_units);
  out += buffer;
  out += "|sc:";
  for (const std::string& site : result.breaker_short_circuits) {
    out += site + ',';
  }
  out += "|probe:";
  for (const std::string& site : result.breaker_probes) out += site + ',';
  out += "|degr:";
  for (const auto& event : result.pipeline.degradations) {
    out += event.stage + '>' + event.to + '@' + event.site + ',';
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeadlineBudget / CancelScope primitives

TEST(DeadlineBudget, ChargesTightensAndReportsPressure) {
  cancel::DeadlineBudget budget(10.0);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.exhausted());
  budget.charge(4.0);
  EXPECT_DOUBLE_EQ(budget.consumed(), 4.0);
  EXPECT_DOUBLE_EQ(budget.pressure(), 0.4);
  // Tighten to consumed + 1: a further 2-unit charge exhausts it.
  budget.tighten(1.0);
  EXPECT_DOUBLE_EQ(budget.total(), 5.0);
  budget.charge(2.0);
  EXPECT_TRUE(budget.exhausted());
  // Tighten never loosens an existing limit.
  budget.tighten(100.0);
  EXPECT_TRUE(budget.exhausted());
}

TEST(DeadlineBudget, UnlimitedUntilTightened) {
  cancel::DeadlineBudget budget;
  EXPECT_FALSE(budget.limited());
  budget.charge(1000.0);
  EXPECT_FALSE(budget.exhausted());
  EXPECT_DOUBLE_EQ(budget.pressure(), 0.0);
  // tighten(0) is the "cancel the rest" drain path: exhausted at once.
  budget.tighten(0.0);
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.exhausted());
}

TEST(CancelScope, CheckpointThrowsStructuredCancelledError) {
  cancel::CancelSource source;
  cancel::DeadlineBudget budget(1.0);
  cancel::CancelScope scope(source.token(), &budget);
  EXPECT_NO_THROW(cancel::checkpoint("stage.alpha"));
  // Exhaust the budget: the charge that crosses the line throws, with
  // the charging site attributed.
  try {
    cancel::charge("stage.beta", 2.0);
    FAIL() << "charge past the deadline must throw";
  } catch (const cancel::CancelledError& error) {
    EXPECT_EQ(error.cause(), cancel::Cause::kDeadlineExceeded);
    EXPECT_EQ(error.site(), "stage.beta");
  }
  // An explicit cancel wins over the (already exhausted) budget.
  source.request_cancel();
  try {
    cancel::checkpoint("stage.gamma");
    FAIL() << "checkpoint after cancel must throw";
  } catch (const cancel::CancelledError& error) {
    EXPECT_EQ(error.cause(), cancel::Cause::kCancelled);
    EXPECT_EQ(error.site(), "stage.gamma");
  }
}

TEST(CancelScope, RestoresPreviousBindingOnExit) {
  cancel::DeadlineBudget outer_budget(50.0);
  cancel::CancelScope outer(cancel::CancellationToken(), &outer_budget);
  {
    cancel::DeadlineBudget inner_budget(5.0);
    cancel::CancelScope inner(cancel::CancellationToken(), &inner_budget);
    EXPECT_EQ(cancel::current_budget(), &inner_budget);
  }
  EXPECT_EQ(cancel::current_budget(), &outer_budget);
}

// ---------------------------------------------------------------------------
// Single-flight cache x cancellation

TEST(Cancellation, CancelledComputeNeverPublishes) {
  cache::Cache<int> cache({});

  // A pre-cancelled scope: the compute's checkpoint throws before a
  // value exists, and the single-flight placeholder must unpublish.
  cancel::CancelSource source;
  source.request_cancel();
  {
    cancel::CancelScope scope(source.token(), nullptr);
    EXPECT_THROW(cache.get_or_compute(42, [] {
      cancel::checkpoint("compute");
      return 1;  // unreachable
    }),
                 cancel::CancelledError);
  }
  // The loser published nothing: a fresh lookup recomputes (second
  // miss), and only the successful value is ever observable.
  const auto value = cache.get_or_compute(42, [] { return 7; });
  EXPECT_EQ(*value, 7);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Server lifecycle outcomes

TEST(ServerLifecycle, TightDeadlineYieldsStructuredOutcome) {
  const auto catalog = small_catalog();
  auto options = lifecycle_options(2);
  // Below the generate-stage cost (1.0): every request exceeds its
  // deadline at the first post-generate charge.
  options.default_deadline_units = 0.5;
  serve::Server server(options, catalog);
  serve::Session session(server, 1);
  std::vector<std::future<serve::RequestResult>> futures;
  for (std::uint64_t id = 0; id < 4; ++id) {
    futures.push_back(session.submit(id, catalog[id % catalog.size()], 0.0));
  }
  server.drain();
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_EQ(result.outcome, serve::RequestOutcome::kDeadlineExceeded);
    EXPECT_EQ(result.failure_site, "pipeline.generate");
    EXPECT_DOUBLE_EQ(result.deadline_units, 0.5);
    EXPECT_GE(result.budget_consumed_units, 0.5);
  }
  EXPECT_EQ(server.stats().deadline_exceeded, 4u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(ServerLifecycle, CancelBeforeSubmitIsBornCancelled) {
  const auto catalog = small_catalog();
  serve::Server server(lifecycle_options(2), catalog);
  serve::Session session(server, 1);
  server.cancel(0);  // before the request even exists
  auto cancelled = session.submit(0, catalog[0], 0.0);
  auto healthy = session.submit(1, catalog[1], 0.0);
  server.drain();
  const auto result = cancelled.get();
  EXPECT_EQ(result.outcome, serve::RequestOutcome::kCancelled);
  EXPECT_EQ(result.failure_site, "serve.request");
  EXPECT_EQ(healthy.get().outcome, serve::RequestOutcome::kCompleted);
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().completed, 1u);
}

TEST(ServerLifecycle, BoundedDrainResolvesEveryOutcome) {
  const auto catalog = small_catalog();
  serve::Server server(lifecycle_options(2), catalog);
  serve::Session session(server, 1);
  std::vector<std::future<serve::RequestResult>> futures;
  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    futures.push_back(session.submit(id, catalog[id % catalog.size()], 0.0));
  }
  // Zero extra budget: anything not already past its last checkpoint is
  // deadline-cancelled, but every future still resolves and the outcome
  // counts conserve.
  server.drain(0.0);
  for (auto& future : futures) future.get();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed + stats.failed + stats.deadline_exceeded +
                stats.cancelled + stats.shed,
            kRequests);
}

#if QCGEN_FAILPOINTS_ENABLED

TEST(ServerLifecycle, DestructionContainsFaultingDrain) {
  const auto catalog = small_catalog();
  const auto scenario = std::make_shared<const failpoint::Scenario>(
      failpoint::Scenario::parse("serve.drain=error(1.0)"));
  failpoint::Injector injector(scenario, /*seed=*/1);
  trace::TraceSink sink(/*keep_events=*/false);
  {
    trace::SinkScope sink_scope(&sink);
    failpoint::InjectorScope injector_scope(&injector);
    serve::Server server(lifecycle_options(2), catalog);
    serve::Session session(server, 1);
    auto future = session.submit(0, catalog[0], 0.0);
    // No explicit drain: the destructor's drain() hits the armed fault
    // and must contain it instead of terminating the process.
    future.wait();
  }
  const auto counters = sink.summary().counters;
  const auto it = counters.find("serve.drain_failures");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second, 1);
}

// ---------------------------------------------------------------------------
// Circuit breakers

TEST(Breaker, OpensUnderSustainedFaultsAtAnyThreadCount) {
  const auto catalog = small_catalog();
  auto run = [&](std::size_t threads) {
    auto options = lifecycle_options(threads);
    options.chaos_scenario =
        "qec.decode=error(1.0);retrieval.query=error(1.0)";
    options.breaker.enabled = true;
    options.breaker.failure_threshold = 2;
    serve::Server server(options, catalog);
    serve::Session session(server, 1);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 12; ++id) {
      futures.push_back(session.submit(
          id, catalog[id % catalog.size()], 0.1 * static_cast<double>(id)));
    }
    server.drain();
    std::vector<serve::RequestResult> results;
    for (auto& future : futures) results.push_back(future.get());
    return std::make_pair(std::move(results), server.breaker_transitions());
  };

  const auto [serial, serial_edges] = run(1);
  const auto [parallel, parallel_edges] = run(8);

  // Bit-identical verdicts, outcomes and transition logs at any thread
  // count: the whole point of deciding breakers in virtual time.
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(lifecycle_fingerprint(serial[i]),
              lifecycle_fingerprint(parallel[i]))
        << "request " << i;
  }
  EXPECT_EQ(serial_edges, parallel_edges);

  // Sustained 100% failure on both degradable sites trips both breakers.
  const auto opened = [&](const char* site) {
    return std::any_of(serial_edges.begin(), serial_edges.end(),
                       [&](const serve::BreakerTransition& edge) {
                         return edge.site == site &&
                                edge.to == serve::BreakerState::kOpen;
                       });
  };
  EXPECT_TRUE(opened("qec.decode"));
  EXPECT_TRUE(opened("retrieval.query"));

  // Once open, later requests short-circuit mid-ladder: they skip the
  // failing sites (QEC planning off, rag off) yet still complete.
  bool saw_short_circuited_completion = false;
  for (const auto& result : serial) {
    const auto& sc = result.breaker_short_circuits;
    if (result.outcome == serve::RequestOutcome::kCompleted &&
        std::find(sc.begin(), sc.end(), "qec.decode") != sc.end() &&
        std::find(sc.begin(), sc.end(), "retrieval.query") != sc.end()) {
      EXPECT_FALSE(result.pipeline.qec.has_value());
      saw_short_circuited_completion = true;
    }
  }
  EXPECT_TRUE(saw_short_circuited_completion);
}

TEST(Breaker, AbortedRequestsAreNoSignal) {
  // A request that never exercised a site must not vouch for it: with
  // failure_threshold consecutive failures interleaved by aborted
  // (deadline-exceeded) requests, the breaker still opens.
  serve::BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  serve::BreakerBoard board(options, {"qec.decode"});
  double vt = 0.0;
  for (std::uint64_t id = 0; id < 6; ++id) {
    board.register_request(id, vt, vt + 0.5);
    vt += 1.0;
  }
  for (std::uint64_t id = 0; id < 6; ++id) {
    (void)board.decide(id);
    if (id % 2 == 0) {
      board.report(id, {"qec.decode"}, {});  // exercised, failed
    } else {
      board.report(id, {}, {});  // aborted before the site: no-signal
    }
  }
  // Three failures with interleaved no-signal reports: breaker open.
  EXPECT_EQ(board.state("qec.decode"), serve::BreakerState::kOpen);
}

TEST(Breaker, SuccessEvidenceResetsTheStreak) {
  serve::BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  serve::BreakerBoard board(options, {"qec.decode"});
  double vt = 0.0;
  for (std::uint64_t id = 0; id < 6; ++id) {
    board.register_request(id, vt, vt + 0.5);
    vt += 1.0;
  }
  for (std::uint64_t id = 0; id < 6; ++id) {
    (void)board.decide(id);
    if (id == 2) {
      board.report(id, {}, {"qec.decode"});  // success: streak resets
    } else {
      board.report(id, {"qec.decode"}, {});
    }
  }
  // fail, fail, success, fail, fail, fail: exactly one open, at the end.
  const auto edges = board.transitions();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(edges[0].request_id, 5u);
}

TEST(Breaker, HalfOpenProbesCloseAfterCooldown) {
  serve::BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 2;
  options.cooldown_vt = 1.0;
  options.half_open_successes = 2;
  options.probe_probability = 1.0;  // every post-cooldown request probes
  options.seed = 7;
  serve::BreakerBoard board(options, {"qec.decode"});
  double vt = 0.0;
  for (std::uint64_t id = 0; id < 6; ++id) {
    board.register_request(id, vt, vt + 0.5);
    vt += 1.0;
  }
  // Two failures open it; after the 1vt cooldown every arrival probes,
  // and two probe successes close it again.
  std::vector<bool> probed;
  for (std::uint64_t id = 0; id < 6; ++id) {
    const auto verdicts = board.decide(id);
    probed.push_back(verdicts.at("qec.decode").probing);
    if (id < 2) {
      board.report(id, {"qec.decode"}, {});
    } else {
      board.report(id, {}, {"qec.decode"});
    }
  }
  EXPECT_EQ(board.state("qec.decode"), serve::BreakerState::kClosed);
  EXPECT_TRUE(std::any_of(probed.begin(), probed.end(),
                          [](bool p) { return p; }));
  // closed -> open -> half-open -> closed, in virtual-time order.
  const auto edges = board.transitions();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].to, serve::BreakerState::kOpen);
  EXPECT_EQ(edges[1].to, serve::BreakerState::kHalfOpen);
  EXPECT_EQ(edges[2].to, serve::BreakerState::kClosed);
  EXPECT_LE(edges[0].vt, edges[1].vt);
  EXPECT_LE(edges[1].vt, edges[2].vt);
}

TEST(Breaker, LifecycleSummaryIsThreadCountInvariant) {
  const auto catalog = small_catalog();
  auto run = [&](std::size_t threads) {
    auto options = lifecycle_options(threads);
    options.chaos_scenario = "qec.decode=error(1.0)";
    options.breaker.enabled = true;
    options.default_deadline_units = 12.0;
    serve::Server server(options, catalog);
    serve::Session session(server, 1);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 10; ++id) {
      futures.push_back(session.submit(
          id, catalog[id % catalog.size()], 0.2 * static_cast<double>(id)));
    }
    server.drain();
    std::vector<serve::RequestResult> results;
    for (auto& future : futures) results.push_back(future.get());
    return serve::LifecycleSummary::from("mix", 12.0, server, results)
        .to_json()
        .dump(0);
  };
  EXPECT_EQ(run(1), run(8));
}

#endif  // QCGEN_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Breakers compose invisibly with healthy traffic

TEST(Breaker, HealthyTrafficIsIdenticalWithBreakersOn) {
  const auto catalog = small_catalog();
  auto run = [&](bool breakers) {
    auto options = lifecycle_options(2);
    options.cache.enabled = true;
    options.breaker.enabled = breakers;
    serve::Server server(options, catalog);
    serve::Session session(server, 1);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 9; ++id) {
      futures.push_back(session.submit(
          id, catalog[id % catalog.size()], 0.1 * static_cast<double>(id)));
    }
    server.drain();
    std::vector<std::string> prints;
    for (auto& future : futures) {
      prints.push_back(lifecycle_fingerprint(future.get()));
    }
    return prints;
  };
  const auto with_breakers = run(true);
  const auto without = run(false);
  ASSERT_EQ(with_breakers.size(), without.size());
  for (std::size_t i = 0; i < with_breakers.size(); ++i) {
    EXPECT_EQ(with_breakers[i], without[i]) << "request " << i;
    // Healthy traffic never short-circuits.
    EXPECT_EQ(with_breakers[i].find("|sc:|"), with_breakers[i].find("|sc:"))
        << "request " << i;
  }
}
