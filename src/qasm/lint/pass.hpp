#pragma once
// LintPass: the unit of static analysis.
//
// A pass inspects a parsed program (plus the precomputed ProgramFacts)
// and reports diagnostics through a DiagnosticSink, which stamps each
// one with the pass's stable id and applies the configured severity
// overrides. Passes are stateless and independent; the driver decides
// which run and in what order.

#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "qasm/diagnostics.hpp"
#include "qasm/language.hpp"
#include "qasm/lint/facts.hpp"

namespace qcgen::qasm::lint {

namespace abstract {
struct AbstractFacts;
}  // namespace abstract

}  // namespace qcgen::qasm::lint

namespace qcgen::qasm::analysis {
struct ResourceFacts;
}  // namespace qcgen::qasm::analysis

namespace qcgen::qasm::lint {

/// Physical qubit connectivity of a target device, in the lint layer's
/// own vocabulary so qasm stays independent of agents/. Edges are
/// undirected pairs of physical qubit indices; agents::coupling_map()
/// converts a DeviceTopology into this form.
struct CouplingMap {
  std::string name;
  std::size_t num_qubits = 0;
  std::vector<std::pair<std::size_t, std::size_t>> edges;

  bool adjacent(std::size_t a, std::size_t b) const {
    for (const auto& [u, v] : edges) {
      if ((u == a && v == b) || (u == b && v == a)) return true;
    }
    return false;
  }
};

/// BFS hop count between physical qubits `a` and `b` on the coupling
/// graph; 0 when disconnected (or out of range). Shared by
/// abstract.topology-conformance and the QEC agent's routing-overhead
/// model.
std::size_t coupling_distance(const CouplingMap& topology, std::size_t a,
                              std::size_t b);

/// Per-pass configuration knobs.
struct PassSettings {
  bool enabled = true;
  /// Overrides the severity of *every* diagnostic the pass emits.
  std::optional<Severity> severity;
};

/// Driver-level configuration: which passes run and how loud they are.
struct LintConfig {
  /// Keyed by stable pass id (e.g. "dataflow.dead-code").
  std::map<std::string, PassSettings, std::less<>> passes;
  /// Per-code severity overrides; these win over pass-level overrides
  /// (the legacy analyzer options map onto this, e.g.
  /// deprecated_import_is_error).
  std::map<DiagCode, Severity> code_severity;
  /// Disables every pass whose id starts with a listed prefix (unless
  /// the pass has an explicit `passes` entry, which wins). "dataflow."
  /// turns the def-use lints off wholesale.
  std::set<std::string, std::less<>> disabled_groups;
  /// When false, diagnostics are stripped of fix-its (the repair-loop
  /// ablation in bench_multipass flips this).
  bool emit_fixits = true;
  /// Target device connectivity for abstract.topology-conformance; the
  /// pass is silent when unset (no target committed yet).
  std::optional<CouplingMap> topology;

  bool pass_enabled(std::string_view id) const;
};

/// Everything a pass may read. Facts are computed once by the driver.
struct PassContext {
  const Program& program;
  const ProgramFacts& facts;
  const LanguageRegistry& registry;
  const LintConfig& config;
  /// Stabilizer-domain abstract interpretation results; null when no
  /// abstract.* pass is enabled (the interpreter is skipped entirely).
  const abstract::AbstractFacts* abstract = nullptr;
  /// Static resource lattice (qasm/analysis); null when no resource.*
  /// pass is enabled (the analysis is skipped entirely).
  const analysis::ResourceFacts* resources = nullptr;
};

/// The concatenation of `parts`, allocated once at its final size (a
/// chain of operator+ regrows the string at every step).
inline std::string concat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out += part;
  return out;
}

/// Collects diagnostics for one pass invocation.
class DiagnosticSink {
 public:
  DiagnosticSink(std::vector<Diagnostic>& out, std::string_view pass_id,
                 const LintConfig& config)
      : out_(out), pass_id_(pass_id), config_(config) {}

  /// Reports one diagnostic. `severity` is the pass's default for this
  /// code; configuration overrides may upgrade or downgrade it.
  void report(Severity severity, DiagCode code, std::string message, int line,
              std::optional<FixIt> fixit = std::nullopt);

  std::size_t reported() const { return reported_; }

 private:
  std::vector<Diagnostic>& out_;
  std::string_view pass_id_;
  const LintConfig& config_;
  std::size_t reported_ = 0;
};

class LintPass {
 public:
  virtual ~LintPass() = default;

  /// Stable id, namespaced by family: "core.imports", "dataflow.dead-code".
  virtual std::string_view id() const = 0;
  /// One-line human description (shown in docs / tooling).
  virtual std::string_view description() const = 0;
  virtual void run(const PassContext& ctx, DiagnosticSink& sink) const = 0;
};

}  // namespace qcgen::qasm::lint
