#include "serve/breaker.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace qcgen::serve {

namespace {

// Salts the breaker seed away from the request / chaos streams derived
// from the same server seed.
constexpr std::uint64_t kProbeSalt = 0x6d1c3b59e8f4a273ULL;

}  // namespace

std::string_view breaker_state_name(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

BreakerBoard::BreakerBoard(BreakerOptions options,
                           std::vector<std::string> sites)
    : options_(options), sites_(std::move(sites)) {
  require(options_.failure_threshold >= 1,
          "BreakerBoard: failure_threshold must be >= 1");
  require(options_.half_open_successes >= 1,
          "BreakerBoard: half_open_successes must be >= 1");
  require(options_.cooldown_vt >= 0.0,
          "BreakerBoard: cooldown_vt must be >= 0");
  require(options_.probe_probability >= 0.0 &&
              options_.probe_probability <= 1.0,
          "BreakerBoard: probe_probability out of [0,1]");
  std::sort(sites_.begin(), sites_.end());
  sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
  require(sites_.size() <= 64, "BreakerBoard: at most 64 sites");
  for (const std::string& site : sites_) {
    site_hashes_.push_back(fnv1a64(site));
  }
  running_.resize(sites_.size());
  committed_.resize(sites_.size());
}

void BreakerBoard::register_request(std::uint64_t id, double arrival_vt,
                                    double finish_vt) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The completeness argument in the header needs nondecreasing arrival
  // order and strictly positive virtual service; fail loudly if the
  // admission contract ever changes under us.
  require(registered_ == 0 || arrival_vt >= last_arrival_vt_,
          "BreakerBoard: arrivals must be registered in virtual order");
  require(finish_vt > arrival_vt,
          "BreakerBoard: virtual finish must exceed arrival");
  const auto [it, inserted] = entries_.try_emplace(id);
  require(inserted, "BreakerBoard: request registered twice");
  Entry& entry = it->second;
  entry.id = id;
  entry.index = registered_++;
  entry.arrival_vt = arrival_vt;
  entry.finish_vt = finish_vt;
  last_arrival_vt_ = arrival_vt;
  pending_.emplace(std::make_pair(finish_vt, entry.index), &entry);
  unreported_finish_.insert(finish_vt);
  pinned_arrivals_.insert(arrival_vt);
  advance_locked();
}

bool BreakerBoard::probes(std::size_t site, std::uint64_t id) const noexcept {
  std::uint64_t state = (options_.seed ^ kProbeSalt ^ site_hashes_[site]) +
                        0x9e3779b97f4a7c15ULL * (id + 1);
  const std::uint64_t mixed = splitmix64(state);
  // 53-bit mantissa draw in [0, 1), the Rng::uniform discipline.
  const double u =
      static_cast<double>(mixed >> 11) * (1.0 / 9007199254740992.0);
  return u < options_.probe_probability;
}

BreakerBoard::SiteBits BreakerBoard::site_bits(
    const std::vector<std::string>& sites) const {
  SiteBits bits = 0;
  for (const std::string& site : sites) {
    const auto it = std::lower_bound(sites_.begin(), sites_.end(), site);
    if (it != sites_.end() && *it == site) {
      bits |= SiteBits{1} << (it - sites_.begin());
    }
  }
  return bits;
}

void BreakerBoard::thaw(Fold& fold, std::size_t site, double now,
                        std::vector<BreakerTransition>* sink) const {
  if (fold.state != BreakerState::kOpen) return;
  const double ready = fold.opened_at + options_.cooldown_vt;
  if (now < ready) return;
  fold.state = BreakerState::kHalfOpen;
  fold.probe_successes = 0;
  if (sink != nullptr) {
    sink->push_back({sites_[site], BreakerState::kOpen,
                     BreakerState::kHalfOpen, ready, 0});
  }
}

void BreakerBoard::apply(Fold& fold, std::size_t site, const Entry& entry,
                         std::vector<BreakerTransition>* sink) const {
  thaw(fold, site, entry.finish_vt, sink);
  if (!entry.decided) return;  // never ran (e.g. cancelled pre-execution)
  const SiteBits bit = SiteBits{1} << site;
  if ((entry.short_circuit & bit) != 0) return;  // never exercised
  const bool failed = (entry.failed & bit) != 0;
  const bool succeeded = (entry.succeeded & bit) != 0;
  const auto edge = [&](BreakerState from, BreakerState to) {
    if (sink != nullptr) {
      sink->push_back({sites_[site], from, to, entry.finish_vt, entry.id});
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
        // Only a request that demonstrably exercised the site vouches
        // for it; one that skipped or aborted before the site is
        // no-signal (see report()).
        fold.consecutive_failures = 0;
      }
      break;
    case BreakerState::kOpen:
      // Stragglers decided while the site was still closed may land
      // here; their signal is stale — the breaker is already open.
      break;
    case BreakerState::kHalfOpen:
      if ((entry.probing & bit) == 0) break;
      if (failed) {
        fold.state = BreakerState::kOpen;
        fold.opened_at = entry.finish_vt;
        fold.consecutive_failures = 0;
        edge(BreakerState::kHalfOpen, BreakerState::kOpen);
      } else if (!succeeded) {
        break;  // probe never reached the site: no-signal either way
      } else if (++fold.probe_successes >= options_.half_open_successes) {
        fold.state = BreakerState::kClosed;
        fold.consecutive_failures = 0;
        fold.probe_successes = 0;
        edge(BreakerState::kHalfOpen, BreakerState::kClosed);
      }
      break;
  }
}

void BreakerBoard::unpin_locked(Entry& entry) {
  if (!entry.pinned) return;
  entry.pinned = false;
  pinned_arrivals_.erase(pinned_arrivals_.find(entry.arrival_vt));
}

void BreakerBoard::advance_locked() {
  // Every verdict still to come is taken at an arrival >= the watermark
  // (pinned requests, and later registrations by arrival order), so the
  // event prefix up to it is common to all of them and can be folded
  // for good — as long as it is complete, hence the stop at the first
  // unreported event.
  const double watermark =
      pinned_arrivals_.empty()
          ? last_arrival_vt_
          : std::min(last_arrival_vt_, *pinned_arrivals_.begin());
  while (!pending_.empty()) {
    const auto front = pending_.begin();
    const Entry& entry = *front->second;
    if (!entry.reported || entry.finish_vt > watermark) break;
    for (std::size_t site = 0; site < sites_.size(); ++site) {
      apply(running_[site], site, entry, &committed_[site]);
    }
    const std::uint64_t id = entry.id;
    pending_.erase(front);
    entries_.erase(id);
  }
}

void BreakerBoard::fold_remainder_locked(
    Fold& fold, std::size_t site,
    std::vector<BreakerTransition>* sink) const {
  for (const auto& [key, entry] : pending_) {
    if (entry->reported) apply(fold, site, *entry, sink);
  }
}

std::map<std::string, BreakerDecision> BreakerBoard::decide(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = entries_.find(id);
  require(it != entries_.end(), "BreakerBoard: decide for unregistered id");
  Entry& entry = it->second;
  if (!entry.decided) {
    require(entry.pinned, "BreakerBoard: decide after the request reported");
    // Gate: the event log below our arrival must be complete. Only
    // earlier-registered requests can finish at or before our arrival
    // (admission hands out nondecreasing starts), and under FIFO pop each
    // of them is already executing on some worker, so this wait is
    // deadlock-free and bounded by their service times.
    reported_cv_.wait(lock, [&] {
      return unreported_finish_.empty() ||
             *unreported_finish_.begin() > entry.arrival_vt;
    });
    // The running state is the log folded up to the watermark, which is
    // <= our arrival while we are pinned; the events in between are all
    // reported (the gate) and come first in pending_.
    std::vector<Fold> folds = running_;
    std::size_t events = 0;
    for (const auto& [key, event] : pending_) {
      if (key.first > entry.arrival_vt) break;
      for (std::size_t site = 0; site < sites_.size(); ++site) {
        apply(folds[site], site, *event, nullptr);
      }
      ++events;
    }
    max_decide_events_ = std::max(max_decide_events_, events);
    for (std::size_t site = 0; site < sites_.size(); ++site) {
      // The cooldown may have elapsed with no report landing since:
      // materialise the half-open edge the arriving request observes.
      thaw(folds[site], site, entry.arrival_vt, nullptr);
      const SiteBits bit = SiteBits{1} << site;
      switch (folds[site].state) {
        case BreakerState::kClosed:
          break;
        case BreakerState::kOpen:
          entry.short_circuit |= bit;
          break;
        case BreakerState::kHalfOpen:
          if (probes(site, id)) {
            entry.probing |= bit;
            trace::Metrics::counter("breaker.probe");
          } else {
            entry.short_circuit |= bit;
          }
          break;
      }
      if ((entry.short_circuit & bit) != 0) {
        trace::Metrics::counter("breaker.short_circuit");
      }
    }
    entry.decided = true;
    unpin_locked(entry);
  }
  const SiteBits short_circuit = entry.short_circuit;
  const SiteBits probing = entry.probing;
  advance_locked();  // may fold and free `entry` (after finalize())
  lock.unlock();
  std::map<std::string, BreakerDecision> decisions;
  for (std::size_t site = 0; site < sites_.size(); ++site) {
    const SiteBits bit = SiteBits{1} << site;
    decisions.emplace_hint(decisions.end(), sites_[site],
                           BreakerDecision{(short_circuit & bit) != 0,
                                           (probing & bit) != 0});
  }
  return decisions;
}

void BreakerBoard::report(std::uint64_t id,
                          const std::vector<std::string>& failed_sites,
                          const std::vector<std::string>& succeeded_sites) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(id);
    // After finalize() (abandoned-drain shutdown) late reports are
    // ignored instead of treated as double-report bugs: finalize already
    // marked everything reported to release waiters, and may have folded
    // and freed the request since.
    if (finalized_ && (it == entries_.end() || it->second.reported)) return;
    require(it != entries_.end() && !it->second.reported,
            "BreakerBoard: report for an unregistered or reported id");
    Entry& entry = it->second;
    entry.reported = true;
    entry.failed = site_bits(failed_sites);
    entry.succeeded = site_bits(succeeded_sites);
    unreported_finish_.erase(unreported_finish_.find(entry.finish_vt));
    unpin_locked(entry);  // born cancelled: it will never decide
    advance_locked();
  }
  reported_cv_.notify_all();
}

void BreakerBoard::finalize() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    finalized_ = true;
    // Reported-empty, but still pinned if undecided: a late decide()
    // from a worker outliving the drain folds to the same verdict.
    for (auto& [id, entry] : entries_) entry.reported = true;
    unreported_finish_.clear();
    advance_locked();
  }
  reported_cv_.notify_all();
}

std::vector<BreakerTransition> BreakerBoard::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BreakerTransition> all;
  for (std::size_t site = 0; site < sites_.size(); ++site) {
    all.insert(all.end(), committed_[site].begin(), committed_[site].end());
    Fold fold = running_[site];
    fold_remainder_locked(fold, site, &all);
  }
  return all;
}

BreakerState BreakerBoard::state(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(sites_.begin(), sites_.end(), site);
  if (it == sites_.end() || *it != site) return BreakerState::kClosed;
  const auto index = static_cast<std::size_t>(it - sites_.begin());
  Fold fold = running_[index];
  fold_remainder_locked(fold, index, nullptr);
  return fold.state;
}

BreakerBoard::Footprint BreakerBoard::footprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.size(), max_decide_events_};
}

}  // namespace qcgen::serve
