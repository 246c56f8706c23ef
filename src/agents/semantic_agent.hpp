#pragma once
// Semantic Analysis Agent (paper Sec III-A, second agent).
//
// Performs static analysis (parse + semantic checks + stabilizer-domain
// abstract interpretation — deterministic measurements, unreachable
// conditionals, redundant resets, trivial controlled gates) and
// behavioural verification (simulate and compare against a reference
// distribution), producing the error traces that drive the multi-pass
// repair loop. Abstract facts surface in the trace like any other
// diagnostic, so the repair agent sees e.g. "this conditional is
// provably unreachable" with its delete fix-it. Set
// Options::analysis.topology (agents::coupling_map) to also check
// two-qubit gates against a device coupling graph.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cache/cache.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"
#include "qasm/analysis/resources.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/parser.hpp"
#include "sim/circuit.hpp"
#include "sim/statevector.hpp"

namespace qcgen::agents {

/// Static analysis outcome of one generated source. analyze() hands it
/// out as a shared immutable object: a cache hit aliases the entry, so
/// readers hold the handle instead of copying the report.
struct StaticReport {
  bool syntactic_ok = false;  ///< parsed and no error diagnostics
  std::vector<qasm::Diagnostic> diagnostics;
  /// Lowered circuit; present iff syntactic_ok.
  std::optional<sim::Circuit> circuit;
  /// circuit_digest(*circuit), computed once when it is lowered (0 when
  /// there is no circuit); keys the judged-distribution cache entries.
  std::uint64_t circuit_digest = 0;
  /// Formatted trace for the repair prompt (Sec IV-A).
  std::string error_trace;
  /// Static resource digest of the entry circuit (computed whenever the
  /// source parses); the QEC agent turns it into a ResourcePlan.
  qasm::analysis::ResourceSummary resources;
};

/// Behavioural check outcome.
struct BehaviorReport {
  bool checked = false;  ///< false when no reference was available
  bool matches = false;
  double tvd = 1.0;  ///< total variation distance to the reference
};

/// Cached value of the analysis layer. One cache holds two entry kinds
/// under salted key namespaces: analyze() entries carry the StaticReport
/// for hash(source, lint config); check_behavior() entries carry the
/// exact measurement distribution (the judged distribution) for a
/// lowered circuit's content digest. The unused half of each entry stays
/// empty.
///
/// An entry computed under a trace sink also keeps the deterministic
/// summary (span counts, counter deltas) its compute recorded, and a hit
/// under a sink replays it, so a cached call leaves the trace summary an
/// uncached call would. The memoized computes observe no histograms, so
/// the replay adds exactly what recording them would have added.
struct AnalysisValue {
  StaticReport report;
  sim::Distribution observed;
  /// analyze() entries: the source parsed, so lint ran.
  bool parsed = false;
  /// Set when the entry was computed under a trace sink.
  std::optional<trace::Summary> trace;
};
using AnalysisCache = cache::Cache<AnalysisValue>;

/// Content digest of a lowered circuit — the key material for judged-
/// distribution cache entries (and a useful fingerprint in tests).
std::uint64_t circuit_digest(const sim::Circuit& circuit) noexcept;

class SemanticAnalyzerAgent {
 public:
  struct Options {
    double tvd_threshold = 0.05;
    /// Static-analysis configuration forwarded to qasm::analyze; the
    /// defaults enable the dataflow lints and fix-it emission (flip
    /// `analysis.emit_fixits` off for the repair-loop ablation).
    qasm::AnalyzerOptions analysis;
  };

  /// Options resolved once: the digest of every field that feeds
  /// analyze() output (folded into cache keys) and the lint config
  /// compiled against the built-in passes. Immutable, so any number of
  /// agents share one through a shared_ptr (see AnalyzerKit).
  struct Config {
    explicit Config(Options options);
    Options options;
    std::uint64_t digest = 0;
    qasm::lint::CompiledLintConfig lint;
  };

  SemanticAnalyzerAgent() : SemanticAnalyzerAgent(Options()) {}
  /// Compiles a private Config.
  explicit SemanticAnalyzerAgent(Options options);
  /// Shares an already-compiled Config.
  explicit SemanticAnalyzerAgent(std::shared_ptr<const Config> config);

  const Options& options() const noexcept { return config_->options; }
  const std::shared_ptr<const Config>& config() const noexcept {
    return config_;
  }

  /// Attaches a shared analysis cache (null detaches). analyze() and the
  /// simulation half of check_behavior() are pure functions of their
  /// inputs plus this agent's static-analysis configuration, so
  /// memoization is invisible to callers — results, fail-point trips and
  /// the deterministic trace summary alike; keys fold in a digest of the
  /// analyzer options, so differently-configured agents sharing one
  /// cache never alias entries.
  void set_analysis_cache(std::shared_ptr<AnalysisCache> cache) {
    cache_ = std::move(cache);
  }

  /// Cache key of analyze(source) under this agent's configuration.
  std::uint64_t analysis_key(const std::string& source) const;

  /// Parse + semantic analysis + lowering. With a cache attached the
  /// returned report aliases the cache entry (a hit copies nothing);
  /// without one it is a freshly computed report. Either way it is
  /// immutable and equal to what an uncached call computes.
  std::shared_ptr<const StaticReport> analyze(const std::string& source) const;

  /// Computes the exact measurement distribution of a report's lowered
  /// circuit (it must have one) and compares it to the reference under
  /// total variation distance. The cache keys it by the digest the report
  /// already carries.
  BehaviorReport check_behavior(const StaticReport& report,
                                const sim::Distribution& reference) const;

 private:
  AnalysisValue analyze_impl(const std::string& source) const;

  std::shared_ptr<const Config> config_;
  std::shared_ptr<AnalysisCache> cache_;
};

/// The analyzer configurations of both analyze rungs, compiled once per
/// eval matrix or server and shared by every pipeline it builds:
/// `configured` is the options as given (the abstract-lints rung when
/// the abstract interpreter is on) and `core_lints` the same options
/// with it off. When it already is off, both are the same Config.
class AnalyzerKit {
 public:
  explicit AnalyzerKit(const SemanticAnalyzerAgent::Options& options);

  const std::shared_ptr<const SemanticAnalyzerAgent::Config>& configured()
      const noexcept {
    return configured_;
  }
  const std::shared_ptr<const SemanticAnalyzerAgent::Config>& core_lints()
      const noexcept {
    return core_lints_;
  }

  /// Kits constructed so far in this process — a read-only counter for
  /// tests asserting that a matrix or server builds one kit, not one per
  /// pipeline.
  static std::size_t built() noexcept;

 private:
  std::shared_ptr<const SemanticAnalyzerAgent::Config> configured_;
  std::shared_ptr<const SemanticAnalyzerAgent::Config> core_lints_;
};

}  // namespace qcgen::agents
