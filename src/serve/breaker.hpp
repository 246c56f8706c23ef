#pragma once
// Deterministic per-fail-point-site circuit breakers for the serving
// layer.
//
// Every request tracks, per fail-point site, whether the site has been
// failing persistently enough that attempting it again is wasted budget.
// The classic closed -> open -> half-open machine applies, but *decided
// in serving-layer virtual time* so the verdicts are bit-identical at
// any worker thread count:
//
//   * closed     requests exercise the site normally; `failure_threshold`
//                consecutive failing requests open it.
//   * open       requests arriving within `cooldown_vt` virtual units of
//                the opening short-circuit straight to the site's
//                degraded path (no-rag, core-lints, static-only,
//                skip-QEC or fail-fast — see kSiteTable in server.cpp
//                for the site -> action map).
//   * half-open  after the cooldown, a seeded per-(site, request-id)
//                Bernoulli draw picks probe requests that exercise the
//                real path; `half_open_successes` consecutive probe
//                successes close the breaker, one probe failure re-opens
//                it. Non-probes keep short-circuiting.
//
// Determinism without a wall clock is the hard part: workers finish out
// of submission order, so a naive "mutate shared state on completion"
// breaker would give thread-schedule-dependent verdicts. The board
// instead treats completions as an *event log* and every verdict as a
// pure fold over it:
//
//   * register_request(id, arrival_vt, finish_vt) at admission records
//     the request's virtual window (finish_vt strictly > arrival_vt).
//   * decide(id) first waits until every EARLIER-REGISTERED request j
//     with finish_vt_j <= arrival_vt_i has reported. Later-registered
//     requests k can never matter: admission hands out nondecreasing
//     virtual starts, so finish_vt_k > arrival_vt_k >= arrival_vt_i.
//     The log below arrival_vt_i is therefore complete, and the wait
//     cannot deadlock under FIFO request pop: any awaited j was popped
//     (and is being executed) before i was.
//   * the verdict folds the per-site event stream — reports ordered by
//     (finish_vt, registration index) — up to arrival_vt_i through the
//     state machine. Reports carry explicit per-site evidence (failed /
//     succeeded; anything else is no-signal — see report()); an event
//     only counts if its request actually exercised the site (its own
//     earlier verdict was not a short-circuit), and in half-open state
//     only probe events count.
//
// The same fold over the *complete* log (transitions()) yields the
// authoritative transition history reported by the lifecycle bench.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <condition_variable>
#include <mutex>

namespace qcgen::serve {

struct BreakerOptions {
  bool enabled = false;
  /// Consecutive exercised-request failures that open a closed breaker.
  int failure_threshold = 3;
  /// Virtual units an open breaker waits before allowing probes.
  double cooldown_vt = 4.0;
  /// Consecutive probe successes that close a half-open breaker.
  int half_open_successes = 2;
  /// Per-(site, request-id) seeded probability that a request arriving
  /// at a half-open breaker probes the real path.
  double probe_probability = 0.5;
  /// Seed for the probe draw (the server passes its own seed).
  std::uint64_t seed = 0;
};

enum class BreakerState {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2,
};

std::string_view breaker_state_name(BreakerState state) noexcept;

/// One edge of a site's state machine, in virtual time.
struct BreakerTransition {
  std::string site;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  /// Virtual time of the transition: the triggering report's finish_vt,
  /// or opened_at + cooldown_vt for the lazy open -> half-open edge.
  double vt = 0.0;
  /// Request whose report triggered it (0 for the lazy cooldown edge).
  std::uint64_t request_id = 0;
  friend bool operator==(const BreakerTransition&,
                         const BreakerTransition&) = default;
};

/// Per-site verdict handed to a request before it runs.
struct BreakerDecision {
  /// Skip the real path and take the site's degraded action.
  bool short_circuit = false;
  /// Half-open probe: exercise the real path; the outcome drives the
  /// close / re-open edge.
  bool probing = false;
};

/// The server's breaker state over all tracked sites. Thread-safe; all
/// verdicts are virtual-time deterministic (see file comment).
class BreakerBoard {
 public:
  BreakerBoard(BreakerOptions options, std::vector<std::string> sites);

  const BreakerOptions& options() const noexcept { return options_; }

  /// Records an admitted request's virtual window. Must be called in
  /// submission order (the server's submit path is sequential); shed
  /// requests must NOT be registered — they never report.
  void register_request(std::uint64_t id, double arrival_vt,
                        double finish_vt);

  /// Verdicts for every tracked site at the request's arrival_vt.
  /// Blocks until the event log below arrival_vt is complete (see file
  /// comment for why that terminates). Verdicts are cached: later folds
  /// read them to know whether this request exercised / probed a site.
  std::map<std::string, BreakerDecision> decide(std::uint64_t id);

  /// Reports the request's per-site evidence: `failed_sites` it failed
  /// at (failure site and degradation-forcing sites) and
  /// `succeeded_sites` it demonstrably exercised without incident. Every
  /// registered request must report exactly once, on every outcome path.
  /// Sites in neither list are *no-signal*: a request that never reached
  /// a site (aborted mid-run, skipped the stage, short-circuited) is not
  /// proof of the site's health, so it neither resets a closed breaker's
  /// failure streak nor closes a half-open one. The caller owns the
  /// exercise accounting — only it knows which stages actually ran.
  void report(std::uint64_t id, const std::vector<std::string>& failed_sites,
              const std::vector<std::string>& succeeded_sites);

  /// Releases any decide() waiters by marking still-unreported requests
  /// as reported-empty (destruction / abandoned-drain safety valve).
  void finalize();

  /// Authoritative transition history: the full-log fold, per site in
  /// site order, each site's edges in virtual-time order.
  std::vector<BreakerTransition> transitions() const;

  /// Convenience for tests: the state the full log leaves `site` in.
  BreakerState state(std::string_view site) const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::size_t index = 0;  ///< registration order
    double arrival_vt = 0.0;
    double finish_vt = 0.0;
    bool decided = false;
    bool reported = false;
    std::map<std::string, BreakerDecision> decisions;
    std::vector<std::string> failed_sites;
    std::vector<std::string> succeeded_sites;
  };

  struct Fold {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int probe_successes = 0;
    double opened_at = 0.0;
  };

  /// Advances `fold`, materialising the lazy open -> half-open edge if
  /// `now` is past the cooldown. `sink` (nullable) collects edges.
  void thaw(Fold& fold, const std::string& site, double now,
            std::vector<BreakerTransition>* sink) const;
  /// Applies one report event for `site` to `fold`.
  void apply(Fold& fold, const std::string& site, const Entry& entry,
             std::vector<BreakerTransition>* sink) const;
  /// Folds `site`'s event stream up to (and including events at)
  /// `up_to_vt`; +inf folds everything. Caller holds mutex_.
  Fold fold_site_locked(const std::string& site, double up_to_vt,
                        std::vector<BreakerTransition>* sink) const;
  bool probes(std::string_view site, std::uint64_t id) const noexcept;

  BreakerOptions options_;
  std::vector<std::string> sites_;

  mutable std::mutex mutex_;
  std::condition_variable reported_cv_;
  bool finalized_ = false;
  std::map<std::uint64_t, Entry> entries_;
  /// Registration order; also the report-event order key alongside
  /// finish_vt (ties broken by earlier registration).
  std::vector<std::uint64_t> order_;
};

}  // namespace qcgen::serve
