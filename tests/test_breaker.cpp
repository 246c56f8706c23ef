// BreakerBoard against a full re-fold oracle.
//
// The board folds its event log incrementally behind a virtual-time
// watermark. The oracle below is the direct reading of the breaker
// contract: every verdict re-folds the whole reported log — ordered by
// (finish_vt, registration index) — up to the request's arrival, and
// transitions() / state() re-fold all of it. Seeded logs with failure
// bursts, finish-time ties, born-cancelled requests, shuffled completion
// orders and an early finalize() must give identical verdicts, edge logs
// and states on both, serially and from a worker pool; a long soak must
// keep the board's footprint bounded by the in-flight window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "serve/breaker.hpp"

using namespace qcgen;
using serve::BreakerDecision;
using serve::BreakerOptions;
using serve::BreakerState;
using serve::BreakerTransition;

namespace {

// ---------------------------------------------------------------------------
// The oracle: a serial full re-fold of the whole log per verdict.

class ReferenceBoard {
 public:
  ReferenceBoard(BreakerOptions options, std::vector<std::string> sites)
      : options_(options), sites_(std::move(sites)) {
    std::sort(sites_.begin(), sites_.end());
    sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
  }

  void register_request(std::uint64_t id, double arrival_vt,
                        double finish_vt) {
    Entry entry;
    entry.id = id;
    entry.arrival_vt = arrival_vt;
    entry.finish_vt = finish_vt;
    index_of_.emplace(id, log_.size());
    log_.push_back(std::move(entry));
  }

  std::map<std::string, BreakerDecision> decide(std::uint64_t id) {
    const std::size_t index = index_of_.at(id);
    Entry& entry = log_[index];
    if (!entry.decided) {
      // Serial callers must satisfy the gate up front: the real board
      // would block here until every earlier request finishing by our
      // arrival has reported.
      for (std::size_t j = 0; j < index; ++j) {
        if (log_[j].finish_vt <= entry.arrival_vt && !log_[j].reported) {
          throw std::logic_error("oracle: decide before its log is complete");
        }
      }
      const std::vector<Fold> folds =
          fold_sites(entry.arrival_vt, true, nullptr);
      for (std::size_t s = 0; s < sites_.size(); ++s) {
        BreakerDecision decision;
        if (folds[s].state == BreakerState::kOpen) {
          decision.short_circuit = true;
        } else if (folds[s].state == BreakerState::kHalfOpen) {
          (probes(sites_[s], id) ? decision.probing
                                 : decision.short_circuit) = true;
        }
        entry.decisions.push_back(decision);
      }
      entry.decided = true;
    }
    std::map<std::string, BreakerDecision> decisions;
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      decisions.emplace(sites_[s], entry.decisions[s]);
    }
    return decisions;
  }

  void report(std::uint64_t id, const std::vector<std::string>& failed,
              const std::vector<std::string>& succeeded) {
    Entry& entry = log_[index_of_.at(id)];
    if (entry.reported) return;  // after finalize()
    entry.reported = true;
    entry.failed_sites = failed;
    entry.succeeded_sites = succeeded;
  }

  void finalize() {
    for (Entry& entry : log_) entry.reported = true;
  }

  std::vector<BreakerTransition> transitions() const {
    std::vector<std::vector<BreakerTransition>> sinks(sites_.size());
    (void)fold_sites(0.0, false, &sinks);
    std::vector<BreakerTransition> all;
    for (const auto& sink : sinks) all.insert(all.end(), sink.begin(), sink.end());
    return all;
  }

  BreakerState state(const std::string& site) const {
    const auto it = std::find(sites_.begin(), sites_.end(), site);
    if (it == sites_.end()) return BreakerState::kClosed;
    return fold_sites(0.0, false, nullptr)[it - sites_.begin()].state;
  }

 private:
  struct Entry {
    std::uint64_t id = 0;
    double arrival_vt = 0.0;
    double finish_vt = 0.0;
    bool decided = false;
    bool reported = false;
    std::vector<BreakerDecision> decisions;  ///< by site index
    std::vector<std::string> failed_sites;
    std::vector<std::string> succeeded_sites;
  };

  struct Fold {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int probe_successes = 0;
    double opened_at = 0.0;
  };

  bool probes(const std::string& site, std::uint64_t id) const {
    constexpr std::uint64_t kProbeSalt = 0x6d1c3b59e8f4a273ULL;
    std::uint64_t state = (options_.seed ^ kProbeSalt ^ fnv1a64(site)) +
                          0x9e3779b97f4a7c15ULL * (id + 1);
    const std::uint64_t mixed = splitmix64(state);
    const double u =
        static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);
    return u < options_.probe_probability;
  }

  void thaw(Fold& fold, const std::string& site, double now,
            std::vector<BreakerTransition>* sink) const {
    if (fold.state != BreakerState::kOpen) return;
    const double ready = fold.opened_at + options_.cooldown_vt;
    if (now < ready) return;
    fold.state = BreakerState::kHalfOpen;
    fold.probe_successes = 0;
    if (sink != nullptr) {
      sink->push_back({site, BreakerState::kOpen, BreakerState::kHalfOpen,
                       ready, 0});
    }
  }

  void apply(Fold& fold, std::size_t s, const Entry& entry,
             std::vector<BreakerTransition>* sink) const {
    const std::string& site = sites_[s];
    thaw(fold, site, entry.finish_vt, sink);
    if (!entry.decided) return;
    const BreakerDecision& decision = entry.decisions[s];
    if (decision.short_circuit) return;
    const auto contains = [&site](const std::vector<std::string>& sites) {
      return std::find(sites.begin(), sites.end(), site) != sites.end();
    };
    const bool failed = contains(entry.failed_sites);
    const bool succeeded = contains(entry.succeeded_sites);
    const auto edge = [&](BreakerState from, BreakerState to) {
      if (sink != nullptr) {
        sink->push_back({site, from, to, entry.finish_vt, entry.id});
      }
    };
    switch (fold.state) {
      case BreakerState::kClosed:
        if (failed) {
          if (++fold.consecutive_failures >= options_.failure_threshold) {
            fold.state = BreakerState::kOpen;
            fold.opened_at = entry.finish_vt;
            edge(BreakerState::kClosed, BreakerState::kOpen);
          }
        } else if (succeeded) {
          fold.consecutive_failures = 0;
        }
        break;
      case BreakerState::kOpen:
        break;
      case BreakerState::kHalfOpen:
        if (!decision.probing) break;
        if (failed) {
          fold.state = BreakerState::kOpen;
          fold.opened_at = entry.finish_vt;
          fold.consecutive_failures = 0;
          edge(BreakerState::kHalfOpen, BreakerState::kOpen);
        } else if (succeeded &&
                   ++fold.probe_successes >= options_.half_open_successes) {
          fold.state = BreakerState::kClosed;
          fold.consecutive_failures = 0;
          fold.probe_successes = 0;
          edge(BreakerState::kHalfOpen, BreakerState::kClosed);
        }
        break;
    }
  }

  /// Folds every site over the reported events up to `up_to_vt`
  /// (everything when `bounded` is false), then thaws at the horizon if
  /// bounded. `sinks` (nullable) collects each site's edges.
  std::vector<Fold> fold_sites(
      double up_to_vt, bool bounded,
      std::vector<std::vector<BreakerTransition>>* sinks) const {
    // log_ is registration order, so a stable sort by finish_vt gives
    // the (finish_vt, registration index) event order.
    std::vector<const Entry*> events;
    for (const Entry& entry : log_) {
      if (!entry.reported) continue;
      if (bounded && entry.finish_vt > up_to_vt) continue;
      events.push_back(&entry);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Entry* a, const Entry* b) {
                       return a->finish_vt < b->finish_vt;
                     });
    std::vector<Fold> folds(sites_.size());
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      auto* sink = sinks == nullptr ? nullptr : &(*sinks)[s];
      for (const Entry* entry : events) apply(folds[s], s, *entry, sink);
      if (bounded) thaw(folds[s], sites_[s], up_to_vt, sink);
    }
    return folds;
  }

  BreakerOptions options_;
  std::vector<std::string> sites_;
  std::vector<Entry> log_;  ///< registration order
  std::map<std::uint64_t, std::size_t> index_of_;
};

// ---------------------------------------------------------------------------
// Seeded workloads

const std::vector<std::string>& kSites() {
  static const std::vector<std::string> sites = {
      "llm.generate",      "analyzer.parse",    "pool.task",
      "retrieval.query",   "analyzer.abstract", "analyzer.simulate",
      "oracle.reference",  "qec.decode"};
  return sites;
}

BreakerOptions board_options(std::uint64_t seed) {
  BreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  options.cooldown_vt = 4.0;
  options.half_open_successes = 2;
  options.probe_probability = 0.5;
  options.seed = seed;
  return options;
}

/// A uniform draw in [0, 1) keyed by (seed, a, b): the same value for
/// the same request and site whichever thread or board asks.
double draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (a + 1)) ^
                        (0xc2b2ae3d27d4eb4fULL * (b + 1));
  return static_cast<double>(splitmix64(state) >> 11) *
         (1.0 / 9007199254740992.0);
}

struct Request {
  std::uint64_t id = 0;
  double arrival_vt = 0.0;
  double finish_vt = 0.0;
  bool born_cancelled = false;  ///< reports without ever deciding
};

/// Arrivals on a 0.25 vt grid with repeats and services of 1-8 grid
/// steps, so arrival and finish ties are common.
std::vector<Request> make_requests(std::uint64_t seed, std::size_t count,
                                   double cancel_rate) {
  std::vector<Request> requests;
  double vt = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    vt += 0.25 * static_cast<double>(static_cast<int>(draw(seed, i, 1) * 3));
    const double service =
        0.25 * (1.0 + static_cast<double>(static_cast<int>(draw(seed, i, 2) * 8)));
    requests.push_back({1000 + 7 * i, vt, vt + service,
                        draw(seed, i, 3) < cancel_rate});
  }
  return requests;
}

struct Evidence {
  std::vector<std::string> failed;
  std::vector<std::string> succeeded;
};

/// What a request reports given its verdicts: nothing for short-circuited
/// sites, and for exercised ones a seeded outcome that fails mostly
/// inside the site's recurring burst windows.
Evidence evidence_for(std::uint64_t seed, const Request& request,
                      const std::map<std::string, BreakerDecision>& verdicts) {
  Evidence evidence;
  const auto& sites = kSites();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (verdicts.at(sites[s]).short_circuit) continue;
    const double phase =
        std::fmod(request.arrival_vt + 9.0 * static_cast<double>(s), 60.0);
    const double fail_rate = phase < 14.0 ? 0.85 : 0.04;
    const double u = draw(seed ^ 0x5bd1e995ULL, request.id, s);
    if (u < fail_rate) {
      evidence.failed.push_back(sites[s]);
    } else if (u < fail_rate + (1.0 - fail_rate) * 0.8) {
      evidence.succeeded.push_back(sites[s]);
    }
  }
  return evidence;
}

/// Everything a board said during one scripted run.
struct Record {
  std::map<std::uint64_t, std::map<std::string, BreakerDecision>> verdicts;
  std::vector<std::vector<BreakerTransition>> snapshots;
  std::vector<std::vector<BreakerState>> states;

  template <class Board>
  void snapshot(const Board& board) {
    snapshots.push_back(board.transitions());
    std::vector<BreakerState> now;
    for (const std::string& site : kSites()) now.push_back(board.state(site));
    states.push_back(std::move(now));
  }
};

struct Script {
  std::uint64_t seed = 1;
  std::size_t requests = 2000;
  double cancel_rate = 0.03;
  /// Registration runs up to this many requests ahead of decisions.
  std::size_t lookahead = 6;
  /// Stop here and finalize() with the rest undecided or unreported.
  std::size_t finalize_at = 0;  ///< 0 = report everything
};

/// Drives `board` serially the way a pool would: register ahead, decide
/// in registration order, and report decided requests in a seeded
/// shuffled order, always early enough that decide() never has to wait.
template <class Board>
Record run_script(Board& board, const Script& script,
                  std::vector<serve::BreakerBoard::Footprint>* footprints =
                      nullptr) {
  const std::vector<Request> requests =
      make_requests(script.seed, script.requests, script.cancel_rate);
  Record record;
  std::vector<std::size_t> in_flight;  // decided (or cancelled), unreported
  std::map<std::size_t, Evidence> evidence;
  std::size_t registered = 0;
  std::uint64_t step = 0;
  const auto report_one = [&](std::size_t slot) {
    const std::size_t i = in_flight[slot];
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(slot));
    const Evidence& e = evidence[i];
    board.report(requests[i].id, e.failed, e.succeeded);
    evidence.erase(i);
  };
  const std::size_t stop =
      script.finalize_at == 0 ? requests.size() : script.finalize_at;
  for (std::size_t k = 0; k < stop; ++k) {
    const std::size_t ahead =
        1 + static_cast<std::size_t>(draw(script.seed, k, 4) *
                                     static_cast<double>(script.lookahead));
    for (; registered < std::min(requests.size(), k + ahead); ++registered) {
      const Request& r = requests[registered];
      board.register_request(r.id, r.arrival_vt, r.finish_vt);
    }
    const Request& request = requests[k];
    const auto blocking = [&] {
      return std::any_of(in_flight.begin(), in_flight.end(), [&](auto i) {
        return requests[i].finish_vt <= request.arrival_vt;
      });
    };
    while (!in_flight.empty() &&
           (blocking() || in_flight.size() > 8 ||
            draw(script.seed, k, 100 + step++) < 0.3)) {
      report_one(static_cast<std::size_t>(
          draw(script.seed, k, 200 + step++) *
          static_cast<double>(in_flight.size())));
    }
    if (request.born_cancelled) {
      evidence[k] = {};
    } else {
      const auto verdicts = board.decide(request.id);
      evidence[k] = evidence_for(script.seed, request, verdicts);
      record.verdicts[request.id] = verdicts;
    }
    in_flight.push_back(k);
    if (k % 97 == 0) record.snapshot(board);
    if constexpr (std::is_same_v<Board, serve::BreakerBoard>) {
      if (footprints != nullptr) footprints->push_back(board.footprint());
    }
  }
  if (script.finalize_at == 0) {
    while (!in_flight.empty()) {
      report_one(static_cast<std::size_t>(
          draw(script.seed, stop, 300 + step++) *
          static_cast<double>(in_flight.size())));
    }
    record.snapshot(board);
    return record;
  }
  // Half the in-flight requests report; the rest, and every registered
  // request never decided, are left to finalize(). A worker outliving
  // the drain may still decide afterwards.
  for (std::size_t n = in_flight.size() / 2; n > 0; --n) report_one(0);
  record.snapshot(board);
  board.finalize();
  record.snapshot(board);
  for (std::size_t k = stop; k < registered; ++k) {
    if (requests[k].born_cancelled) continue;
    record.verdicts[requests[k].id] = board.decide(requests[k].id);
  }
  record.snapshot(board);
  for (const std::size_t i : in_flight) {
    board.report(requests[i].id, {"qec.decode"}, {});  // ignored: finalized
  }
  record.snapshot(board);
  return record;
}

void expect_same(const Record& board, const Record& oracle) {
  ASSERT_EQ(board.verdicts.size(), oracle.verdicts.size());
  for (const auto& [id, verdicts] : oracle.verdicts) {
    const auto& got = board.verdicts.at(id);
    for (const auto& [site, expected] : verdicts) {
      EXPECT_EQ(got.at(site).short_circuit, expected.short_circuit)
          << "request " << id << " site " << site;
      EXPECT_EQ(got.at(site).probing, expected.probing)
          << "request " << id << " site " << site;
    }
  }
  ASSERT_EQ(board.snapshots.size(), oracle.snapshots.size());
  for (std::size_t i = 0; i < oracle.snapshots.size(); ++i) {
    EXPECT_EQ(board.snapshots[i], oracle.snapshots[i]) << "snapshot " << i;
    EXPECT_EQ(board.states[i], oracle.states[i]) << "snapshot " << i;
  }
}

/// The serial oracle's verdicts, computed once per script.
Record oracle_record(const Script& script) {
  ReferenceBoard oracle(board_options(script.seed), kSites());
  return run_script(oracle, script);
}

bool has_edge(const std::vector<BreakerTransition>& edges, BreakerState from,
              BreakerState to) {
  return std::any_of(edges.begin(), edges.end(), [&](const auto& edge) {
    return edge.from == from && edge.to == to;
  });
}

// ---------------------------------------------------------------------------
// Serial oracle agreement

TEST(Breaker, VerdictsMatchFullRefoldOracle) {
  for (const auto& [seed, requests] :
       {std::pair<std::uint64_t, std::size_t>{1, 2000}, {2, 1000}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Script script{.seed = seed, .requests = requests};
    serve::BreakerBoard board(board_options(seed), kSites());
    const Record got = run_script(board, script);
    const Record want = oracle_record(script);
    expect_same(got, want);
    // The bursts drive every edge of the machine, so the agreement above
    // covers all of it.
    const auto& edges = want.snapshots.back();
    EXPECT_TRUE(has_edge(edges, BreakerState::kClosed, BreakerState::kOpen));
    EXPECT_TRUE(has_edge(edges, BreakerState::kOpen, BreakerState::kHalfOpen));
    EXPECT_TRUE(
        has_edge(edges, BreakerState::kHalfOpen, BreakerState::kClosed));
    EXPECT_TRUE(has_edge(edges, BreakerState::kHalfOpen, BreakerState::kOpen));
  }
}

TEST(Breaker, FinalizeWithUnreportedEntriesMatchesOracle) {
  // finalize() mid-run: unreported entries report empty evidence but
  // still thaw at their finish_vt, undecided ones can still decide, and
  // late reports are ignored.
  for (const std::size_t at : {400u, 733u, 1201u}) {
    SCOPED_TRACE("finalize at " + std::to_string(at));
    const Script script{.seed = 3, .requests = 1300, .lookahead = 12,
                        .finalize_at = at};
    serve::BreakerBoard board(board_options(script.seed), kSites());
    expect_same(run_script(board, script), oracle_record(script));
  }
}

TEST(Breaker, BornCancelledRequestsDoNotPinTheWatermark) {
  // A third of the requests report without deciding. They must neither
  // change the verdicts nor hold the board's folded prefix back.
  const Script script{.seed = 4, .requests = 1500, .cancel_rate = 0.33};
  serve::BreakerBoard board(board_options(script.seed), kSites());
  std::vector<serve::BreakerBoard::Footprint> footprints;
  expect_same(run_script(board, script, &footprints), oracle_record(script));
  for (const auto& footprint : footprints) {
    EXPECT_LE(footprint.retained_entries, 64u);
  }
}

TEST(Breaker, TransitionsStayInSiteThenVirtualTimeOrder) {
  const Script script{.seed = 5, .requests = 1500};
  serve::BreakerBoard board(board_options(script.seed), kSites());
  (void)run_script(board, script);
  const auto edges = board.transitions();
  ASSERT_FALSE(edges.empty());
  for (std::size_t i = 1; i < edges.size(); ++i) {
    ASSERT_LE(edges[i - 1].site, edges[i].site) << "edge " << i;
    if (edges[i - 1].site == edges[i].site) {
      EXPECT_LE(edges[i - 1].vt, edges[i].vt) << "edge " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent oracle agreement

/// A pacer registers requests in order and queues them; `threads`
/// workers pop FIFO, decide, spin a seeded while and report, the way
/// Server's pool runs requests, so completions land shuffled.
std::map<std::uint64_t, std::map<std::string, BreakerDecision>>
run_pool(serve::BreakerBoard& board, const std::vector<Request>& requests,
         std::uint64_t seed, std::size_t threads) {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::size_t> queue;
  bool closed = false;
  std::vector<std::map<std::string, BreakerDecision>> verdicts(
      requests.size());
  const auto worker = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      const Request& request = requests[i];
      try {
        if (request.born_cancelled) {
          board.report(request.id, {}, {});
          continue;
        }
        verdicts[i] = board.decide(request.id);
        const Evidence evidence = evidence_for(seed, request, verdicts[i]);
        const int spins = static_cast<int>(draw(seed, i, 7) * 64.0);
        for (int n = 0; n < spins; ++n) std::this_thread::yield();
        board.report(request.id, evidence.failed, evidence.succeeded);
      } catch (const std::exception& error) {
        ADD_FAILURE() << "request " << request.id << ": " << error.what();
        board.finalize();  // release every waiter so the pool drains
      }
    }
  };
  const auto close = [&] {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    ready.notify_all();
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  try {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      board.register_request(requests[i].id, requests[i].arrival_vt,
                             requests[i].finish_vt);
      {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(i);
      }
      ready.notify_one();
    }
  } catch (const std::exception& error) {
    ADD_FAILURE() << "register: " << error.what();
    board.finalize();
  }
  close();
  for (std::thread& thread : pool) thread.join();
  std::map<std::uint64_t, std::map<std::string, BreakerDecision>> by_id;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].born_cancelled) by_id[requests[i].id] = verdicts[i];
  }
  return by_id;
}

TEST(Breaker, ConcurrentVerdictsMatchOracleAtAnyThreadCount) {
  // Computed once per process: --gtest_repeat reruns only the pools.
  static const Script script{.seed = 6, .requests = 600, .cancel_rate = 0.05};
  static const Record want = oracle_record(script);
  const std::vector<Request> requests =
      make_requests(script.seed, script.requests, script.cancel_rate);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    serve::BreakerBoard board(board_options(script.seed), kSites());
    Record got;
    got.verdicts = run_pool(board, requests, script.seed, threads);
    got.snapshot(board);
    Record final_want;
    final_want.verdicts = want.verdicts;
    final_want.snapshots = {want.snapshots.back()};
    final_want.states = {want.states.back()};
    expect_same(got, final_want);
    EXPECT_LE(board.footprint().retained_entries, 64u);
  }
}

// ---------------------------------------------------------------------------
// Soak

TEST(Breaker, SoakHoldsOnlyInFlightEntries) {
  // 100k requests through the board alone: register a few ahead, decide,
  // report within a shuffled window. Cost and memory must track the
  // in-flight window, not the number of requests served.
  const std::size_t kRequests = 100000;
  const std::size_t kWindow = 8;
  serve::BreakerBoard board(board_options(11), kSites());
  const std::vector<Request> requests = make_requests(11, kRequests, 0.02);
  std::vector<std::size_t> in_flight;
  std::size_t registered = 0;
  std::size_t max_retained = 0;
  for (std::size_t k = 0; k < kRequests; ++k) {
    for (; registered < std::min(kRequests, k + 4); ++registered) {
      const Request& r = requests[registered];
      board.register_request(r.id, r.arrival_vt, r.finish_vt);
    }
    const Request& request = requests[k];
    while (!in_flight.empty() &&
           (in_flight.size() >= kWindow ||
            std::any_of(in_flight.begin(), in_flight.end(), [&](auto i) {
              return requests[i].finish_vt <= request.arrival_vt;
            }))) {
      const auto slot = static_cast<std::size_t>(
          draw(11, k, in_flight.size()) * static_cast<double>(in_flight.size()));
      const std::size_t i = in_flight[slot];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(slot));
      if (requests[i].born_cancelled) {
        board.report(requests[i].id, {}, {});
      } else {
        // A fixed failure pattern keeps every breaker cycling.
        const bool fail = requests[i].id % 5 < 2;
        board.report(requests[i].id,
                     fail ? std::vector<std::string>{"qec.decode",
                                                     "retrieval.query"}
                          : std::vector<std::string>{},
                     fail ? std::vector<std::string>{}
                          : std::vector<std::string>{"qec.decode",
                                                     "retrieval.query"});
      }
    }
    if (!request.born_cancelled) (void)board.decide(request.id);
    in_flight.push_back(k);
    max_retained = std::max(max_retained, board.footprint().retained_entries);
  }
  for (const std::size_t i : in_flight) board.report(requests[i].id, {}, {});
  EXPECT_LE(max_retained, 64u);
  EXPECT_LE(board.footprint().max_decide_events, 64u);
  EXPECT_TRUE(has_edge(board.transitions(), BreakerState::kHalfOpen,
                       BreakerState::kClosed));
}

}  // namespace
