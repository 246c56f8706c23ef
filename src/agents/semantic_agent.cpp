#include "agents/semantic_agent.hpp"

#include <atomic>
#include <iterator>

#include "common/cache/hash.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "qasm/builder.hpp"
#include "sim/statevector.hpp"

namespace qcgen::agents {

namespace {

// Key-namespace salts keeping the two entry kinds of the shared analysis
// cache disjoint.
constexpr std::uint64_t kAnalyzeSalt = 0x9a1e6f3b2d845c07ULL;
constexpr std::uint64_t kSimulateSalt = 0x43d78e1f5ab6290cULL;

/// Digest of every analyzer-options field that feeds analyze() output.
std::uint64_t analyzer_options_digest(const qasm::AnalyzerOptions& options) {
  cache::KeyHasher hasher;
  hasher.mix(options.deprecated_import_is_error);
  hasher.mix(options.deprecated_alias_is_error);
  hasher.mix(options.warn_unused_qubits);
  hasher.mix(options.dataflow_lints);
  hasher.mix(options.abstract_lints);
  hasher.mix(options.resource_lints);
  hasher.mix(options.emit_fixits);
  hasher.mix(options.topology.has_value());
  if (options.topology.has_value()) {
    hasher.mix(options.topology->name);
    hasher.mix(static_cast<std::uint64_t>(options.topology->num_qubits));
    hasher.mix(static_cast<std::uint64_t>(options.topology->edges.size()));
    for (const auto& [a, b] : options.topology->edges) {
      hasher.mix(static_cast<std::uint64_t>(a));
      hasher.mix(static_cast<std::uint64_t>(b));
    }
  }
  return hasher.digest();
}

/// cache->get_or_compute(key, compute), with the caller's trace left as
/// an uncached compute would leave it. Under a trace sink a miss records
/// into a child sink, which is merged into the caller's (wall time and
/// events included, also when the compute throws) and whose summary is
/// stored on the entry; a hit adds the stored summary alone. A hit on an
/// entry filled without a sink recomputes to record its trace.
template <typename Compute>
std::shared_ptr<const AnalysisValue> traced_lookup(AnalysisCache& cache,
                                                   std::uint64_t key,
                                                   const Compute& compute) {
  trace::TraceSink* const sink = trace::current_sink();
  bool computed = false;
  auto entry = cache.get_or_compute(key, [&] {
    computed = true;
    if (sink == nullptr) return compute();
    trace::TraceSink child(sink->keep_events());
    AnalysisValue value;
    try {
      const trace::SinkScope scope(&child);
      value = compute();
    } catch (...) {
      sink->merge(child);
      throw;
    }
    sink->merge(child);
    value.trace = child.summary();
    return value;
  });
  if (!computed && sink != nullptr) {
    if (entry->trace.has_value()) {
      sink->add_summary(*entry->trace);
    } else {
      compute();
    }
  }
  return entry;
}

}  // namespace

std::uint64_t circuit_digest(const sim::Circuit& circuit) noexcept {
  cache::KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(circuit.num_qubits()));
  hasher.mix(static_cast<std::uint64_t>(circuit.num_clbits()));
  hasher.mix(static_cast<std::uint64_t>(circuit.operations().size()));
  for (const sim::Operation& op : circuit.operations()) {
    hasher.mix(static_cast<std::uint64_t>(op.kind));
    hasher.mix(static_cast<std::uint64_t>(op.qubits.size()));
    for (const std::size_t q : op.qubits) {
      hasher.mix(static_cast<std::uint64_t>(q));
    }
    hasher.mix(static_cast<std::uint64_t>(op.params.size()));
    for (const double p : op.params) hasher.mix(p);
    hasher.mix(op.clbit.has_value());
    if (op.clbit.has_value()) {
      hasher.mix(static_cast<std::uint64_t>(*op.clbit));
    }
    hasher.mix(op.condition.has_value());
    if (op.condition.has_value()) {
      hasher.mix(static_cast<std::uint64_t>(op.condition->clbit));
      hasher.mix(op.condition->value);
    }
  }
  return hasher.digest();
}

SemanticAnalyzerAgent::Config::Config(Options options_in)
    : options(std::move(options_in)),
      digest(analyzer_options_digest(options.analysis)),
      lint(options.analysis.to_lint_config()) {
  require(options.tvd_threshold > 0.0 && options.tvd_threshold < 1.0,
          "SemanticAnalyzerAgent: tvd_threshold in (0,1)");
}

SemanticAnalyzerAgent::SemanticAnalyzerAgent(Options options)
    : SemanticAnalyzerAgent(std::make_shared<const Config>(std::move(options))) {
}

SemanticAnalyzerAgent::SemanticAnalyzerAgent(
    std::shared_ptr<const Config> config)
    : config_(std::move(config)) {
  require(config_ != nullptr, "SemanticAnalyzerAgent: null config");
}

namespace {
std::atomic<std::size_t> kits_built{0};
}  // namespace

AnalyzerKit::AnalyzerKit(const SemanticAnalyzerAgent::Options& options)
    : configured_(std::make_shared<const SemanticAnalyzerAgent::Config>(options)) {
  if (options.analysis.abstract_lints) {
    SemanticAnalyzerAgent::Options core = options;
    core.analysis.abstract_lints = false;
    core_lints_ =
        std::make_shared<const SemanticAnalyzerAgent::Config>(std::move(core));
  } else {
    core_lints_ = configured_;
  }
  kits_built.fetch_add(1, std::memory_order_relaxed);
}

std::size_t AnalyzerKit::built() noexcept {
  return kits_built.load(std::memory_order_relaxed);
}

std::uint64_t SemanticAnalyzerAgent::analysis_key(
    const std::string& source) const {
  return cache::KeyHasher()
      .mix(kAnalyzeSalt)
      .mix(source)
      .mix(config_->digest)
      .digest();
}

std::shared_ptr<const StaticReport> SemanticAnalyzerAgent::analyze(
    const std::string& source) const {
  // The fail points fire per call (outside any memoized computation), so
  // fault-injection behaviour never depends on cache state.
  failpoint::trip("analyzer.parse");
  if (cache_ == nullptr) {
    AnalysisValue computed = analyze_impl(source);
    // Lint runs the abstract interpreter exactly when the source parsed
    // and some abstract.* pass is on; its fail point trips under that
    // condition.
    if (computed.parsed && config_->lint.want_abstract) {
      failpoint::trip("analyzer.abstract");
    }
    return std::make_shared<const StaticReport>(std::move(computed.report));
  }
  std::shared_ptr<const AnalysisValue> entry = traced_lookup(
      *cache_, analysis_key(source), [&] { return analyze_impl(source); });
  if (entry->parsed && config_->lint.want_abstract) {
    failpoint::trip("analyzer.abstract");
  }
  // Aliasing handle: keeps the entry alive, points at its report.
  const StaticReport* report = &entry->report;
  return std::shared_ptr<const StaticReport>(std::move(entry), report);
}

AnalysisValue SemanticAnalyzerAgent::analyze_impl(
    const std::string& source) const {
  AnalysisValue value;
  StaticReport& report = value.report;
  qasm::ParseResult parsed = [&] {
    trace::TraceSpan span("analyze.parse");
    return qasm::parse(source);
  }();
  value.parsed = parsed.ok();
  report.diagnostics = std::move(parsed.diagnostics);
  if (!value.parsed) {
    trace::Metrics::counter("analyze.parse_failures");
    report.error_trace = qasm::format_error_trace(report.diagnostics);
    return value;
  }
  // One ProgramFacts feeds both the entry summary and every lint pass.
  const qasm::lint::ProgramFacts facts = [&] {
    trace::TraceSpan span("lint.facts");
    return qasm::lint::ProgramFacts::compute(*parsed.program);
  }();
  // The summary is reachability-free: it feeds the QEC ResourcePlan, and
  // lint's resource lattice reuses it for every circuit that abstract
  // reachability cannot change.
  qasm::analysis::ResourceFacts resources = [&] {
    trace::TraceSpan span("analyze.resources");
    qasm::analysis::ResourceFacts out =
        qasm::analysis::ResourceFacts::compute(facts);
    report.resources = qasm::analysis::summarize_entry(facts, out);
    return out;
  }();
  qasm::AnalysisReport analysis = [&] {
    trace::TraceSpan span("analyze.lint");
    return qasm::lint::run_passes(facts, qasm::LanguageRegistry::current(),
                                  config_->lint, &resources);
  }();
  const bool lint_ok = analysis.ok();
  // The lint diagnostics move into the report: their strings are not
  // copied.
  if (report.diagnostics.empty()) {
    report.diagnostics = std::move(analysis.diagnostics);
  } else {
    report.diagnostics.insert(
        report.diagnostics.end(),
        std::make_move_iterator(analysis.diagnostics.begin()),
        std::make_move_iterator(analysis.diagnostics.end()));
  }
  report.error_trace = qasm::format_error_trace(report.diagnostics);
  trace::Metrics::counter("analyze.diagnostics",
                          static_cast<std::int64_t>(report.diagnostics.size()));
  if (!lint_ok) return value;
  report.syntactic_ok = true;
  trace::TraceSpan span("analyze.lower");
  report.circuit = qasm::build_circuit(*parsed.program);
  report.circuit_digest = circuit_digest(*report.circuit);
  return value;
}

BehaviorReport SemanticAnalyzerAgent::check_behavior(
    const StaticReport& report, const sim::Distribution& reference) const {
  require(report.circuit.has_value(),
          "SemanticAnalyzerAgent::check_behavior: report has no circuit");
  BehaviorReport behavior;
  behavior.checked = true;
  if (reference.empty()) {
    behavior.matches = false;
    return behavior;
  }
  failpoint::trip("analyzer.simulate");
  const auto simulate = [&] {
    trace::TraceSpan span("analyze.simulate");
    return sim::exact_distribution(*report.circuit);
  };
  // Keep the shared entry alive while judging against it.
  std::shared_ptr<const AnalysisValue> entry;
  sim::Distribution local;
  const sim::Distribution* observed = nullptr;
  if (cache_ != nullptr) {
    const std::uint64_t key = cache::KeyHasher()
                                  .mix(kSimulateSalt)
                                  .mix(report.circuit_digest)
                                  .digest();
    entry = traced_lookup(*cache_, key, [&] {
      AnalysisValue value;
      value.observed = simulate();
      return value;
    });
    observed = &entry->observed;
  } else {
    local = simulate();
    observed = &local;
  }
  {
    trace::TraceSpan span("analyze.judge");
    behavior.tvd = total_variation_distance(*observed, reference);
    behavior.matches =
        !observed->empty() && behavior.tvd <= config_->options.tvd_threshold;
  }
  trace::Metrics::observe("judge.tvd", behavior.tvd);
  return behavior;
}

}  // namespace qcgen::agents
