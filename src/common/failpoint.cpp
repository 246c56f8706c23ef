#include "common/failpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"
#include "common/trace.hpp"

namespace qcgen::failpoint {

namespace {

thread_local Injector* t_injector = nullptr;

bool valid_site_name(std::string_view site) {
  if (site.empty()) return false;
  return std::all_of(site.begin(), site.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '.' ||
           c == '_' || c == '-';
  });
}

/// Round-trip-exact double formatting: 17 significant digits survive a
/// strtod parse bit-identically, and %g strips the trailing-zero noise.
std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

bool parse_number(std::string_view text, double* out) {
  const std::string owned(trim(text));
  if (owned.empty() || owned.front() == '-' || owned.front() == '+') {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool parse_integer(std::string_view text, std::uint64_t* out) {
  const std::string owned(trim(text));
  if (owned.empty()) return false;
  if (!std::all_of(owned.begin(), owned.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

[[noreturn]] void clause_error(std::string_view clause,
                               const std::string& why) {
  throw InvalidArgumentError("failpoint scenario: " + why + " in clause '" +
                             std::string(clause) + "'");
}

SitePolicy parse_clause(std::string_view clause) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string_view::npos) {
    clause_error(clause, "missing '='");
  }
  SitePolicy policy;
  policy.site = std::string(trim(clause.substr(0, eq)));
  if (!valid_site_name(policy.site)) {
    clause_error(clause, "bad site name '" + policy.site + "'");
  }

  std::string_view rest = trim(clause.substr(eq + 1));
  // Action token runs up to '(' or the first guard '@'.
  const std::size_t action_end = rest.find_first_of("(@");
  const std::string_view action = trim(rest.substr(0, action_end));
  bool has_arg = false;
  double arg = 0.0;
  if (action_end != std::string_view::npos && rest[action_end] == '(') {
    const std::size_t close = rest.find(')', action_end);
    if (close == std::string_view::npos) {
      clause_error(clause, "unclosed '('");
    }
    if (!parse_number(rest.substr(action_end + 1, close - action_end - 1),
                      &arg)) {
      clause_error(clause, "bad numeric argument");
    }
    has_arg = true;
    rest = trim(rest.substr(close + 1));
  } else if (action_end != std::string_view::npos) {
    rest = rest.substr(action_end);
  } else {
    rest = {};
  }

  if (action == "error") {
    policy.action = Action::kError;
    if (has_arg) policy.probability = arg;
  } else if (action == "corrupt") {
    policy.action = Action::kCorrupt;
    if (has_arg) policy.probability = arg;
  } else if (action == "delay") {
    policy.action = Action::kDelay;
    if (has_arg) policy.delay_units = arg;
  } else {
    clause_error(clause, "unknown action '" + std::string(action) + "'");
  }

  // Guards: zero or more '@'-prefixed refinements.
  while (!rest.empty()) {
    if (rest.front() != '@') {
      clause_error(clause, "expected '@' guard");
    }
    std::size_t next = rest.find('@', 1);
    const std::string_view guard = trim(rest.substr(1, next == std::string_view::npos
                                                           ? std::string_view::npos
                                                           : next - 1));
    rest = next == std::string_view::npos ? std::string_view{}
                                          : rest.substr(next);
    if (guard.rfind("every=", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_integer(guard.substr(6), &n) || n == 0) {
        clause_error(clause, "bad '@every=' count");
      }
      policy.every_n = n;
    } else if (guard.rfind("pass>", 0) == 0) {
      std::uint64_t n = 0;
      if (!parse_integer(guard.substr(5), &n) || n > 1u << 20) {
        clause_error(clause, "bad '@pass>' bound");
      }
      policy.min_pass = static_cast<int>(n);
    } else if (guard.rfind("p=", 0) == 0) {
      double p = 0.0;
      if (!parse_number(guard.substr(2), &p)) {
        clause_error(clause, "bad '@p=' probability");
      }
      policy.probability = p;
    } else {
      clause_error(clause, "unknown guard '@" + std::string(guard) + "'");
    }
  }

  if (policy.probability < 0.0 || policy.probability > 1.0) {
    clause_error(clause, "probability out of [0,1]");
  }
  if (policy.delay_units < 0.0) {
    clause_error(clause, "negative delay units");
  }
  return policy;
}

}  // namespace

std::string_view action_name(Action action) noexcept {
  switch (action) {
    case Action::kError: return "error";
    case Action::kDelay: return "delay";
    case Action::kCorrupt: return "corrupt";
  }
  return "?";
}

std::string SitePolicy::canonical() const {
  std::string out = site;
  out += '=';
  out += action_name(action);
  if (action == Action::kDelay) {
    out += '(' + format_number(delay_units) + ')';
    if (every_n == 0 && probability != 1.0) {
      out += "@p=" + format_number(probability);
    }
  } else {
    // error/corrupt carry their trigger probability as the argument
    // (redundant in every-N mode, but harmless and explicit).
    out += '(' + format_number(probability) + ')';
  }
  if (every_n > 0) out += "@every=" + std::to_string(every_n);
  if (min_pass > 0) out += "@pass>" + std::to_string(min_pass);
  return out;
}

const SitePolicy* Scenario::find(std::string_view site) const noexcept {
  for (const SitePolicy& policy : sites) {
    if (policy.site == site) return &policy;
  }
  return nullptr;
}

std::string Scenario::canonical() const {
  std::string out;
  for (const SitePolicy& policy : sites) {
    if (!out.empty()) out += ';';
    out += policy.canonical();
  }
  return out;
}

Scenario Scenario::parse(std::string_view spec) {
  Scenario scenario;
  if (trim(spec).empty()) return scenario;  // "" / whitespace-only: no sites
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t end = std::min(spec.find(';', begin), spec.size());
    const std::string_view clause = trim(spec.substr(begin, end - begin));
    const bool last_segment = end == spec.size();
    begin = end + 1;
    if (clause.empty()) {
      // A single trailing ';' after the final clause is tolerated (shell
      // loops emit it constantly); every other empty segment — leading
      // ';', ";;", separator-only specs — is a structured error instead
      // of a silent skip, so typos like "a=error(;;b=error(" can't drop
      // clauses.
      if (last_segment && !scenario.sites.empty()) break;
      throw InvalidArgumentError("failpoint scenario: empty clause in spec '" +
                                 std::string(spec) + "'");
    }
    SitePolicy policy = parse_clause(clause);
    if (scenario.find(policy.site) != nullptr) {
      clause_error(clause, "duplicate clause for site '" + policy.site + "'");
    }
    scenario.sites.push_back(std::move(policy));
  }
  std::sort(scenario.sites.begin(), scenario.sites.end(),
            [](const SitePolicy& a, const SitePolicy& b) {
              return a.site < b.site;
            });
  return scenario;
}

std::optional<Scenario> Scenario::try_parse(std::string_view spec,
                                            std::string* error) {
  try {
    return parse(spec);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

Injector::Injector(std::shared_ptr<const Scenario> scenario,
                   std::uint64_t seed)
    : scenario_(std::move(scenario)) {
  require(scenario_ != nullptr, "Injector: null scenario");
  // Pre-build every site's state so hit() never mutates the map layout
  // (lookup + counter bump under the mutex is all that remains).
  for (const SitePolicy& policy : scenario_->sites) {
    SiteState state;
    state.policy = &policy;
    state.rng = Rng(seed + 0x9e3779b97f4a7c15ULL * fnv1a64(policy.site));
    states_.emplace(policy.site, std::move(state));
  }
}

std::optional<Hit> Injector::hit(std::string_view site, int pass) {
  if (states_.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(site);
  if (it == states_.end()) return std::nullopt;
  SiteState& state = it->second;
  const SitePolicy& policy = *state.policy;
  ++state.hits;
  if (policy.min_pass > 0 && pass <= policy.min_pass) return std::nullopt;
  bool fire;
  if (policy.every_n > 0) {
    fire = state.hits % policy.every_n == 0;
  } else {
    fire = state.rng.bernoulli(policy.probability);
  }
  if (!fire) return std::nullopt;
  ++fired_;
  Hit hit;
  hit.action = policy.action;
  if (policy.action == Action::kDelay) {
    hit.delay_units = policy.delay_units;
    delay_units_ += policy.delay_units;
  } else if (policy.action == Action::kCorrupt) {
    hit.corrupt_seed = state.rng.next();
  }
  return hit;
}

double Injector::delay_units_charged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delay_units_;
}

std::uint64_t Injector::fired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

Injector* current_injector() noexcept { return t_injector; }

InjectorScope::InjectorScope(Injector* injector) noexcept
    : previous_(t_injector) {
  t_injector = injector;
}

InjectorScope::~InjectorScope() { t_injector = previous_; }

std::shared_ptr<const Scenario> ScenarioScope::arm(std::string_view spec) {
  auto scenario = std::make_shared<const Scenario>(Scenario::parse(spec));
  return scenario->empty() ? nullptr : scenario;
}

ScenarioScope::ScenarioScope(const std::shared_ptr<const Scenario>& scenario,
                             std::uint64_t seed) {
  if (scenario == nullptr) return;
  injector_.emplace(scenario, seed);
  scope_.emplace(&*injector_);
}

#if QCGEN_FAILPOINTS_ENABLED

std::optional<Hit> check(std::string_view site, int pass) {
  Injector* injector = t_injector;
  if (injector == nullptr) return std::nullopt;
  return injector->hit(site, pass);
}

std::optional<Hit> trip(std::string_view site, int pass) {
  std::optional<Hit> hit = check(site, pass);
  if (!hit.has_value()) return hit;
  trace::Metrics::counter("failpoint.fired");
  trace::Metrics::counter("failpoint." + std::string(site));
  if (hit->action == Action::kError) {
    throw InjectedFault(std::string(site),
                        "injected fault at " + std::string(site));
  }
  return hit;
}

#endif  // QCGEN_FAILPOINTS_ENABLED

}  // namespace qcgen::failpoint
