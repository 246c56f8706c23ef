#pragma once
// Deterministic, seeded fault-injection framework ("fail points").
//
// A *fail point* is a named site in the library — `llm.generate`,
// `analyzer.parse`, `qec.decode`, ... — where a fault can be injected
// under test. What (if anything) happens at a site is decided by a
// *scenario*: a compact string mapping sites to policies, e.g.
//
//   "llm.generate=error(0.02);qec.decode=error(1.0)@pass>1"
//
// Grammar (whitespace-insensitive, ';'-separated clauses):
//
//   clause := site '=' action [guard]*
//   site   := [a-z0-9._-]+            (at most one clause per site)
//   action := 'error'   ['(' prob ')']   throw InjectedFault
//           | 'corrupt' ['(' prob ')']   hand the site a corruption stream
//           | 'delay'   ['(' units ')']  charge budget units (no wall time)
//   guard  := '@every=' N               fire on hits N, 2N, 3N, ...
//           | '@pass>' N                fire only when the site's pass > N
//           | '@p=' prob                trigger probability (delay points)
//
// Determinism is the design center: firing decisions are made by a
// per-*trial* Injector whose per-site RNG streams are derived from a
// caller-supplied seed (the trial's own seed stream), so a chaos run is
// bit-reproducible at any thread count — no global mutable registry, no
// wall-clock. `delay` points therefore charge abstract *budget units*
// (accounted by the resilience layer) instead of sleeping.
//
// Sites consult the thread-locally installed Injector (InjectorScope,
// mirroring trace::SinkScope); with none installed a check is a
// thread-local read and a branch. Building with -DQCGEN_FAILPOINTS=OFF
// compiles every check to `return std::nullopt` so instrumentation
// vanishes from release binaries entirely.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

#ifndef QCGEN_FAILPOINTS_ENABLED
#define QCGEN_FAILPOINTS_ENABLED 1
#endif

namespace qcgen::failpoint {

/// What an armed fail point does when it fires.
enum class Action { kError, kDelay, kCorrupt };

std::string_view action_name(Action action) noexcept;

/// Policy for one named injection site.
struct SitePolicy {
  std::string site;
  Action action = Action::kError;
  /// Per-hit trigger probability in [0,1]; ignored when every_n > 0.
  double probability = 1.0;
  /// Fire on hits every_n, 2*every_n, ... (1 = every hit); 0 = use
  /// probability instead.
  std::uint64_t every_n = 0;
  /// Budget units one fired kDelay hit charges.
  double delay_units = 1.0;
  /// Fires only when the site's pass number is > min_pass (`@pass>N`);
  /// 0 accepts every pass (sites outside a pass loop report pass 0).
  int min_pass = 0;

  /// Canonical clause form; parse(canonical()) reproduces the policy.
  std::string canonical() const;

  friend bool operator==(const SitePolicy&, const SitePolicy&) = default;
};

/// A parsed, validated scenario: one policy per armed site, sorted by
/// site name. Immutable after parse; share via shared_ptr across trials.
struct Scenario {
  std::vector<SitePolicy> sites;

  bool empty() const noexcept { return sites.empty(); }
  const SitePolicy* find(std::string_view site) const noexcept;

  /// Canonical string form: clauses sorted by site, numbers printed
  /// round-trip exactly. parse(canonical()) == *this.
  std::string canonical() const;

  /// Parses a scenario spec; throws InvalidArgumentError with a message
  /// naming the offending clause on any syntax or range error.
  static Scenario parse(std::string_view spec);

  /// Non-throwing variant (fuzzing, CLI validation). On failure returns
  /// nullopt and, when `error` is non-null, stores the message.
  static std::optional<Scenario> try_parse(std::string_view spec,
                                           std::string* error = nullptr);

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// The exception a fired kError point throws. Carries the site name so
/// containment layers can attribute the failure.
class InjectedFault : public QcgenError {
 public:
  InjectedFault(std::string site, const std::string& what)
      : QcgenError(what), site_(std::move(site)) {}
  const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
};

/// One fired hit, as seen by the injection site.
struct Hit {
  Action action = Action::kError;
  double delay_units = 0.0;    ///< kDelay: units charged by this hit
  std::uint64_t corrupt_seed = 0;  ///< kCorrupt: seed for the corruption
};

/// Per-trial fail-point evaluation state: a hit counter and an
/// independent RNG stream per armed site, both derived from `seed`.
/// Thread-safe (a trial may fan work onto pool workers); determinism
/// within a trial relies on the trial hitting each site in a fixed
/// order, which single-threaded trial bodies guarantee.
class Injector {
 public:
  Injector(std::shared_ptr<const Scenario> scenario, std::uint64_t seed);

  const Scenario& scenario() const noexcept { return *scenario_; }

  /// Consults the policy for `site`. Returns the fired hit, or nullopt
  /// when the site is unarmed or the trigger did not fire this hit.
  std::optional<Hit> hit(std::string_view site, int pass);

  /// Total delay units charged by fired kDelay hits so far.
  double delay_units_charged() const;
  /// Total hits that fired (any action).
  std::uint64_t fired() const;

 private:
  struct SiteState {
    const SitePolicy* policy = nullptr;
    std::uint64_t hits = 0;
    Rng rng;
    SiteState() : rng(0) {}
  };

  std::shared_ptr<const Scenario> scenario_;
  mutable std::mutex mutex_;
  std::map<std::string, SiteState, std::less<>> states_;
  double delay_units_ = 0.0;
  std::uint64_t fired_ = 0;
};

/// The injector fail points on this thread consult (nullptr = dormant).
Injector* current_injector() noexcept;

/// RAII: installs `injector` as this thread's injector and restores the
/// previous binding on destruction. nullptr disables injection for the
/// scope, so call sites can pass an optional injector unconditionally.
class InjectorScope {
 public:
  explicit InjectorScope(Injector* injector) noexcept;
  ~InjectorScope();
  InjectorScope(const InjectorScope&) = delete;
  InjectorScope& operator=(const InjectorScope&) = delete;

 private:
  Injector* previous_;
};

/// RAII: runs its scope (an eval trial, a serving request, a matrix's
/// oracle prewarm) under a fresh Injector over `scenario` seeded with
/// `seed`. A null scenario installs nothing: an outer injector stays live.
class ScenarioScope {
 public:
  /// Parses `spec` once for every scope to share; null when it arms no
  /// site. Throws like Scenario::parse.
  static std::shared_ptr<const Scenario> arm(std::string_view spec);

  ScenarioScope(const std::shared_ptr<const Scenario>& scenario,
                std::uint64_t seed);
  ScenarioScope(const ScenarioScope&) = delete;
  ScenarioScope& operator=(const ScenarioScope&) = delete;

 private:
  std::optional<Injector> injector_;
  std::optional<InjectorScope> scope_;
};

#if QCGEN_FAILPOINTS_ENABLED

/// Site entry point: evaluates the thread's injector (if any) for
/// `site`. Never throws; the caller decides what a hit means.
std::optional<Hit> check(std::string_view site, int pass = 0);

/// Convenience entry point: check(), then throw InjectedFault on a
/// kError hit. kDelay charge is already accounted by the injector;
/// kCorrupt hits are returned for the site to apply.
std::optional<Hit> trip(std::string_view site, int pass = 0);

#else  // QCGEN_FAILPOINTS_ENABLED == 0: sites compile to nothing.

inline std::optional<Hit> check(std::string_view, int = 0) {
  return std::nullopt;
}
inline std::optional<Hit> trip(std::string_view, int = 0) {
  return std::nullopt;
}

#endif  // QCGEN_FAILPOINTS_ENABLED

}  // namespace qcgen::failpoint
