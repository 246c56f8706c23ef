#include "qasm/lint/driver.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>

#include "common/trace.hpp"
#include "qasm/analysis/resources.hpp"
#include "qasm/lint/abstract/interpreter.hpp"

namespace qcgen::qasm {

std::size_t AnalysisReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t AnalysisReport::warning_count() const {
  return diagnostics.size() - error_count();
}

bool AnalysisReport::only_syntactic_errors() const {
  return std::all_of(diagnostics.begin(), diagnostics.end(),
                     [](const Diagnostic& d) {
                       return d.severity != Severity::kError ||
                              is_syntactic(d.code);
                     });
}

namespace lint {

CompiledLintConfig::CompiledLintConfig(LintConfig lint_config,
                                       const PassRegistry& pass_registry)
    : config(std::move(lint_config)), registry(&pass_registry) {
  enabled.reserve(registry->passes().size());
  for (const auto& pass : registry->passes()) {
    const std::string_view id = pass->id();
    const bool on = config.pass_enabled(id);
    enabled.push_back(on);
    want_abstract = want_abstract || (on && id.starts_with("abstract."));
    want_resources = want_resources || (on && id.starts_with("resource."));
  }
}

AnalysisReport run_passes(const ProgramFacts& facts,
                          const LanguageRegistry& language,
                          const CompiledLintConfig& compiled,
                          analysis::ResourceFacts* reachability_free) {
  // The abstract interpreter runs once, and only if some abstract.* pass
  // will actually read its results.
  std::optional<abstract::AbstractFacts> abstract_facts;
  if (compiled.want_abstract) {
    trace::TraceSpan span("lint.abstract-interpret");
    abstract_facts = abstract::AbstractFacts::compute(facts);
  }
  // Same deal for the resource lattice: computed once, only when some
  // resource.* pass will read it. It reuses the abstract reachability
  // verdicts when the interpreter ran, so conditional costs tighten.
  std::optional<analysis::ResourceFacts> resource_facts;
  if (compiled.want_resources) {
    trace::TraceSpan span("lint.resource-analysis");
    resource_facts = analysis::ResourceFacts::compute(
        facts, abstract_facts ? &*abstract_facts : nullptr,
        reachability_free);
  }
  const PassContext ctx{*facts.program, facts, language, compiled.config,
                        abstract_facts ? &*abstract_facts : nullptr,
                        resource_facts ? &*resource_facts : nullptr};
  AnalysisReport report;
  const auto& passes = compiled.registry->passes();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (!compiled.enabled[i]) continue;
    const LintPass& pass = *passes[i];
    // Pass ids are stable string literals, so they double as per-pass
    // span names ("dataflow.dead-code", "abstract.trivial-gate", ...).
    trace::TraceSpan span(pass.id());
    DiagnosticSink sink(report.diagnostics, pass.id(), compiled.config);
    pass.run(ctx, sink);
  }
  // Deterministic presentation for the repair loop: order by source
  // position, then by pass id for same-line overlap; identical
  // (pass, code, line, message) tuples report once. The pass id is part
  // of the key on purpose — two distinct passes flagging the same code
  // and line are independent findings, not duplicates, and collapsing
  // them would hide one pass's fix-it behind the other's.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.line, a.pass_id) <
                            std::tie(b.line, b.pass_id);
                   });
  // After the sort every (line, pass) key is one contiguous run, so a
  // duplicate can only sit earlier in the current run.
  std::vector<Diagnostic> unique;
  unique.reserve(report.diagnostics.size());
  std::size_t run_begin = 0;
  for (Diagnostic& d : report.diagnostics) {
    if (!unique.empty() && (unique.back().line != d.line ||
                            unique.back().pass_id != d.pass_id)) {
      run_begin = unique.size();
    }
    const bool duplicate = std::any_of(
        unique.begin() + static_cast<std::ptrdiff_t>(run_begin), unique.end(),
        [&](const Diagnostic& u) {
          return u.code == d.code && u.message == d.message;
        });
    if (!duplicate) unique.push_back(std::move(d));
  }
  report.diagnostics = std::move(unique);
  return report;
}

AnalysisReport run_passes(const Program& program,
                          const LanguageRegistry& language,
                          const PassRegistry& registry,
                          const LintConfig& config) {
  const ProgramFacts facts = [&] {
    trace::TraceSpan span("lint.facts");
    return ProgramFacts::compute(program);
  }();
  return run_passes(facts, language, CompiledLintConfig(config, registry));
}

}  // namespace lint
}  // namespace qcgen::qasm
