#pragma once
// Lint driver: runs a registry of passes over one program.
//
// The driver reads ProgramFacts computed once per program, feeds every
// enabled pass a shared PassContext, stamps diagnostics with pass ids
// via the sink, and returns them sorted by source line (unknown-line
// diagnostics first) so the error trace reads top-to-bottom.

#include <vector>

#include "qasm/diagnostics.hpp"
#include "qasm/language.hpp"
#include "qasm/lint/facts.hpp"
#include "qasm/lint/registry.hpp"

namespace qcgen::qasm {

/// Static analysis report for a parsed program.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return !has_errors(diagnostics); }
  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// True if all *errors* are syntactic-class (see is_syntactic()).
  bool only_syntactic_errors() const;
};

namespace lint {

/// A LintConfig resolved against one PassRegistry, once: which passes
/// run, and whether any enabled pass reads the abstract interpreter's or
/// the resource lattice's facts. Holding one per configuration keeps the
/// prefix and id lookups out of every driver run.
struct CompiledLintConfig {
  explicit CompiledLintConfig(
      LintConfig config,
      const PassRegistry& registry = PassRegistry::builtin());

  LintConfig config;
  const PassRegistry* registry = nullptr;
  /// Parallel to registry->passes().
  std::vector<bool> enabled;
  bool want_abstract = false;   ///< some abstract.* pass is enabled
  bool want_resources = false;  ///< some resource.* pass is enabled
};

/// Runs every enabled pass over precomputed facts. `reachability_free`,
/// when given, must be analysis::ResourceFacts::compute(facts); the
/// resource lattice then reuses (and moves out of) it for every circuit
/// abstract reachability cannot change.
AnalysisReport run_passes(const ProgramFacts& facts,
                          const LanguageRegistry& language,
                          const CompiledLintConfig& config,
                          analysis::ResourceFacts* reachability_free = nullptr);

/// Computes the facts of `program` and runs every enabled pass in
/// `registry` over it.
AnalysisReport run_passes(const Program& program,
                          const LanguageRegistry& language =
                              LanguageRegistry::current(),
                          const PassRegistry& registry =
                              PassRegistry::builtin(),
                          const LintConfig& config = {});

}  // namespace lint
}  // namespace qcgen::qasm
