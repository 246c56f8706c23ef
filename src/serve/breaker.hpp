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
// instead treats completions as an *event log* ordered by (finish_vt,
// registration index) and every verdict as the state that log's fold
// reaches at the request's arrival:
//
//   * register_request(id, arrival_vt, finish_vt) at admission records
//     the request's virtual window (finish_vt strictly > arrival_vt).
//   * decide(id) first waits until the smallest finish_vt among
//     unreported requests exceeds arrival_vt_i. Only earlier-registered
//     requests can hold it back: admission hands out nondecreasing
//     virtual starts, so a later-registered k has finish_vt_k >
//     arrival_vt_k >= arrival_vt_i. The log below arrival_vt_i is then
//     complete, and the wait cannot deadlock under FIFO request pop: any
//     awaited j was popped (and is being executed) before i was.
//   * reports carry explicit per-site evidence (failed / succeeded;
//     anything else is no-signal — see report()); an event only counts
//     if its request actually exercised the site (its own earlier
//     verdict was not a short-circuit), and in half-open state only
//     probe events count.
//
// The fold runs incrementally behind a watermark W: the smaller of the
// earliest arrival among registered requests that have neither decided
// nor reported, and the latest registered arrival. Every verdict still
// to come is taken at an arrival >= W, so the log prefix up to W is
// shared by all of them. Reported events with finish_vt <= W are folded
// into per-site running state — in log order, stopping at the first
// unreported one (a decided request still running may finish below W)
// — appended to per-site committed transition logs, and freed.
// decide(i) copies the running state, replays the few reported events
// in (W, arrival_vt_i], and thaws at arrival_vt_i: the same fold the
// full log gives, so verdicts stay bit-identical at any thread count,
// while a verdict costs O(sites x in-flight events) and the board holds
// only the requests still in flight.
//
// transitions() / state() continue the committed state over the
// reported, not yet committed remainder: the same authoritative history
// a fold over the *complete* log yields, reported by the lifecycle bench.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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
  /// At most 64 distinct sites (evidence and verdicts are site bitsets).
  BreakerBoard(BreakerOptions options, std::vector<std::string> sites);

  const BreakerOptions& options() const noexcept { return options_; }

  /// Records an admitted request's virtual window. Must be called in
  /// submission order (the server's submit path is sequential); shed
  /// requests must NOT be registered — they never report. Ids must be
  /// unique among the requests the board still holds.
  void register_request(std::uint64_t id, double arrival_vt,
                        double finish_vt);

  /// Verdicts for every tracked site at the request's arrival_vt.
  /// Blocks until the event log below arrival_vt is complete (see file
  /// comment for why that terminates). Must precede the request's
  /// report(): a request that reports undecided (born cancelled) never
  /// decides. Verdicts are kept until the request's report is folded:
  /// that fold reads them to know whether it exercised / probed a site.
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

  /// What the board holds, for bounded-memory checks.
  struct Footprint {
    /// Registered requests not yet folded into the running state.
    std::size_t retained_entries = 0;
    /// Most report events any one decide() replayed on top of it.
    std::size_t max_decide_events = 0;
  };
  Footprint footprint() const;

 private:
  using SiteBits = std::uint64_t;

  struct Entry {
    std::uint64_t id = 0;
    std::size_t index = 0;  ///< registration order
    double arrival_vt = 0.0;
    double finish_vt = 0.0;
    bool decided = false;
    bool reported = false;
    /// Holds the watermark at arrival_vt: neither decided nor report()ed.
    bool pinned = true;
    SiteBits short_circuit = 0;
    SiteBits probing = 0;
    SiteBits failed = 0;
    SiteBits succeeded = 0;
  };

  struct Fold {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    int probe_successes = 0;
    double opened_at = 0.0;
  };

  /// Advances `fold`, materialising the lazy open -> half-open edge if
  /// `now` is past the cooldown. `sink` (nullable) collects edges.
  void thaw(Fold& fold, std::size_t site, double now,
            std::vector<BreakerTransition>* sink) const;
  /// Applies one report event for `site` to `fold`.
  void apply(Fold& fold, std::size_t site, const Entry& entry,
             std::vector<BreakerTransition>* sink) const;
  bool probes(std::size_t site, std::uint64_t id) const noexcept;
  SiteBits site_bits(const std::vector<std::string>& sites) const;
  /// Removes `entry`'s hold on the watermark, if it still has one.
  void unpin_locked(Entry& entry);
  /// Folds reported events up to the watermark into the running state
  /// and frees them. Caller holds mutex_.
  void advance_locked();
  /// `fold` continued over the reported, uncommitted remainder.
  void fold_remainder_locked(Fold& fold, std::size_t site,
                             std::vector<BreakerTransition>* sink) const;

  BreakerOptions options_;
  std::vector<std::string> sites_;
  std::vector<std::uint64_t> site_hashes_;  ///< fnv1a64 of each site

  mutable std::mutex mutex_;
  std::condition_variable reported_cv_;
  bool finalized_ = false;
  std::size_t registered_ = 0;
  double last_arrival_vt_ = 0.0;
  /// Requests not yet folded into running_, by id.
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// The same requests in event order: (finish_vt, registration index).
  std::map<std::pair<double, std::size_t>, Entry*> pending_;
  /// finish_vt of every unreported request: the decide() gate.
  std::multiset<double> unreported_finish_;
  /// arrival_vt of every pinned request: the watermark.
  std::multiset<double> pinned_arrivals_;
  /// Per site: the fold of the committed log prefix and its edges.
  std::vector<Fold> running_;
  std::vector<std::vector<BreakerTransition>> committed_;
  std::size_t max_decide_events_ = 0;
};

}  // namespace qcgen::serve
