// SemanticAnalyzerAgent::analyze shares one ProgramFacts between the entry
// resource summary and the lint passes, compiles its lint configuration
// once, and reuses the reachability-free resource lattice for circuits
// without guarded ops. This suite checks it against the full recompute
// path — parse, summarize_entry, every pass LintConfig::pass_enabled
// admits run over freshly computed facts, build_circuit — on every gold
// program and on SimLM output, under the default options, the degraded
// analyzer's options and the other configurations benches use. It also
// checks the two precomputed layers the analyzer reads against the
// lookups they replace: CompiledLintConfig against pass_enabled, and
// FlatOp::gate against LanguageRegistry::resolve_gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "agents/semantic_agent.hpp"
#include "eval/suite.hpp"
#include "llm/knowledge.hpp"
#include "llm/simlm.hpp"
#include "llm/templates.hpp"
#include "qasm/analysis/resources.hpp"
#include "qasm/builder.hpp"
#include "qasm/lint/abstract/interpreter.hpp"
#include "qasm/lint/driver.hpp"
#include "qasm/lint/pass.hpp"
#include "qasm/printer.hpp"

namespace qcgen {
namespace {

using agents::SemanticAnalyzerAgent;
using agents::StaticReport;

/// True when some pass whose id starts with `prefix` is enabled, asked
/// the way the driver asked before it compiled its configuration.
bool group_enabled(const qasm::lint::LintConfig& config,
                   std::string_view prefix) {
  const auto& passes = qasm::lint::PassRegistry::builtin().passes();
  return std::any_of(passes.begin(), passes.end(), [&](const auto& pass) {
    return pass->id().substr(0, prefix.size()) == prefix &&
           config.pass_enabled(pass->id());
  });
}

/// The lint driver's contract, without CompiledLintConfig or the reused
/// resource lattice: each pass's id is looked up in `config`, and the
/// abstract and resource facts are computed from scratch whenever some
/// enabled pass reads them. Same ordering and de-duplication rules as
/// the driver, kept here with a std::set.
std::vector<qasm::Diagnostic> lint_from_scratch(
    const qasm::Program& program, const qasm::lint::LintConfig& config) {
  const qasm::lint::ProgramFacts facts =
      qasm::lint::ProgramFacts::compute(program);
  std::optional<qasm::lint::abstract::AbstractFacts> abstract_facts;
  if (group_enabled(config, "abstract.")) {
    abstract_facts = qasm::lint::abstract::AbstractFacts::compute(facts);
  }
  std::optional<qasm::analysis::ResourceFacts> resource_facts;
  if (group_enabled(config, "resource.")) {
    resource_facts = qasm::analysis::ResourceFacts::compute(
        facts, abstract_facts ? &*abstract_facts : nullptr);
  }
  const qasm::lint::PassContext ctx{
      program,
      facts,
      qasm::LanguageRegistry::current(),
      config,
      abstract_facts ? &*abstract_facts : nullptr,
      resource_facts ? &*resource_facts : nullptr};
  std::vector<qasm::Diagnostic> diagnostics;
  for (const auto& pass : qasm::lint::PassRegistry::builtin().passes()) {
    if (!config.pass_enabled(pass->id())) continue;
    qasm::lint::DiagnosticSink sink(diagnostics, pass->id(), config);
    pass->run(ctx, sink);
  }
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const qasm::Diagnostic& a, const qasm::Diagnostic& b) {
                     return std::tie(a.line, a.pass_id) <
                            std::tie(b.line, b.pass_id);
                   });
  std::set<std::tuple<std::string, int, qasm::DiagCode, std::string>> seen;
  std::vector<qasm::Diagnostic> unique;
  for (qasm::Diagnostic& d : diagnostics) {
    if (seen.insert({d.pass_id, d.line, d.code, d.message}).second) {
      unique.push_back(std::move(d));
    }
  }
  return unique;
}

/// The analyze contract computed the long way: every stage from scratch.
StaticReport recompute(const std::string& source,
                       const qasm::AnalyzerOptions& options) {
  StaticReport report;
  const qasm::ParseResult parsed = qasm::parse(source);
  report.diagnostics = parsed.diagnostics;
  if (!parsed.ok()) {
    report.error_trace = qasm::format_error_trace(report.diagnostics);
    return report;
  }
  report.resources = qasm::analysis::summarize_entry(*parsed.program);
  const std::vector<qasm::Diagnostic> lints =
      lint_from_scratch(*parsed.program, options.to_lint_config());
  report.diagnostics.insert(report.diagnostics.end(), lints.begin(),
                            lints.end());
  report.error_trace = qasm::format_error_trace(report.diagnostics);
  if (qasm::has_errors(lints)) return report;
  report.syntactic_ok = true;
  report.circuit = qasm::build_circuit(*parsed.program);
  return report;
}

void expect_same_summary(const qasm::analysis::ResourceSummary& got,
                         const qasm::analysis::ResourceSummary& want,
                         const std::string& source) {
  EXPECT_EQ(got.computed, want.computed) << source;
  EXPECT_EQ(got.qubits, want.qubits) << source;
  EXPECT_EQ(got.qubits_used, want.qubits_used) << source;
  EXPECT_EQ(got.gate_count, want.gate_count) << source;
  EXPECT_EQ(got.t_count, want.t_count) << source;
  EXPECT_EQ(got.ccx_count, want.ccx_count) << source;
  EXPECT_EQ(got.rotation_count, want.rotation_count) << source;
  EXPECT_EQ(got.two_qubit_count, want.two_qubit_count) << source;
  EXPECT_EQ(got.non_clifford_count, want.non_clifford_count) << source;
  EXPECT_EQ(got.measure_count, want.measure_count) << source;
  EXPECT_EQ(got.depth, want.depth) << source;
  EXPECT_EQ(got.t_depth, want.t_depth) << source;
  EXPECT_EQ(got.two_qubit_pairs, want.two_qubit_pairs) << source;
}

/// Counts what the comparisons covered, so a corpus that silently lost
/// its guarded or its failing programs fails the suite.
struct Coverage {
  std::size_t programs = 0;
  std::size_t lowered = 0;
  std::size_t parse_failures = 0;
  std::size_t guarded = 0;
};

void expect_matches_recompute(const SemanticAnalyzerAgent& analyzer,
                              const std::string& source,
                              Coverage& coverage) {
  const std::shared_ptr<const StaticReport> report = analyzer.analyze(source);
  const StaticReport& got = *report;
  const StaticReport want = recompute(source, analyzer.options().analysis);
  ++coverage.programs;
  EXPECT_EQ(got.syntactic_ok, want.syntactic_ok) << source;
  EXPECT_EQ(got.diagnostics, want.diagnostics) << source;
  EXPECT_EQ(got.error_trace, want.error_trace) << source;
  expect_same_summary(got.resources, want.resources, source);
  ASSERT_EQ(got.circuit.has_value(), want.circuit.has_value()) << source;
  if (got.circuit.has_value()) {
    ++coverage.lowered;
    EXPECT_EQ(agents::circuit_digest(*got.circuit),
              agents::circuit_digest(*want.circuit))
        << source;
  }
  const qasm::ParseResult parsed = qasm::parse(source);
  if (!parsed.ok()) {
    ++coverage.parse_failures;
  } else {
    const qasm::lint::ProgramFacts facts =
        qasm::lint::ProgramFacts::compute(*parsed.program);
    if (std::any_of(facts.circuits.begin(), facts.circuits.end(),
                    [](const qasm::lint::CircuitFacts& circuit) {
                      return circuit.has_guarded_op;
                    })) {
      ++coverage.guarded;
    }
  }
}

/// Every configuration the pipeline, the server and the benches build an
/// analyzer with.
std::vector<qasm::AnalyzerOptions> analyzer_configurations() {
  std::vector<qasm::AnalyzerOptions> out(1);  // defaults
  qasm::AnalyzerOptions degraded;             // the degraded analyzer
  degraded.abstract_lints = false;
  out.push_back(degraded);
  qasm::AnalyzerOptions no_fixits;
  no_fixits.emit_fixits = false;
  out.push_back(no_fixits);
  qasm::AnalyzerOptions no_resources;
  no_resources.resource_lints = false;
  out.push_back(no_resources);
  qasm::AnalyzerOptions legacy;
  legacy.dataflow_lints = false;
  legacy.warn_unused_qubits = false;
  legacy.deprecated_alias_is_error = true;
  out.push_back(legacy);
  qasm::AnalyzerOptions topology;
  topology.topology = qasm::lint::CouplingMap{"linear-3", 3, {{0, 1}, {1, 2}}};
  out.push_back(topology);
  return out;
}

std::vector<std::string> gold_sources() {
  std::vector<std::string> out;
  for (const auto& suite : {eval::semantic_suite(), eval::qhe_suite()}) {
    for (const eval::TestCase& test_case : suite) {
      out.push_back(qasm::print_program(llm::gold_program(test_case.task)));
    }
  }
  for (const llm::AlgorithmId algorithm : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = algorithm;
    out.push_back(qasm::print_program(llm::gold_program(task)));
  }
  return out;
}

/// SimLM output for every semantic-suite prompt at several model seeds,
/// at the QHE suite's syntax stress so parse failures are common too.
std::vector<std::string> simlm_sources() {
  std::vector<std::string> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    llm::SimLM model(llm::base_knowledge(llm::ModelProfile::kStarCoder3B),
                     seed * 7777);
    for (const eval::TestCase& test_case : eval::semantic_suite()) {
      llm::GenerationContext context;
      context.syntax_difficulty = eval::kQheSyntaxDifficulty;
      out.push_back(model.generate(test_case.task, context).source);
    }
  }
  return out;
}

TEST(AnalyzerOracle, GoldProgramsUnderEveryConfiguration) {
  const std::vector<std::string> sources = gold_sources();
  for (const qasm::AnalyzerOptions& analysis : analyzer_configurations()) {
    SemanticAnalyzerAgent::Options options;
    options.analysis = analysis;
    const SemanticAnalyzerAgent analyzer(options);
    Coverage coverage;
    for (const std::string& source : sources) {
      expect_matches_recompute(analyzer, source, coverage);
    }
    EXPECT_EQ(coverage.programs, sources.size());
    EXPECT_GT(coverage.lowered, 0u);
    // Teleportation and friends carry if-guards: the path that keeps
    // two resource computations must be exercised.
    EXPECT_GT(coverage.guarded, 0u);
  }
}

TEST(AnalyzerOracle, SimLmOutputUnderEveryConfiguration) {
  const std::vector<std::string> sources = simlm_sources();
  for (const qasm::AnalyzerOptions& analysis : analyzer_configurations()) {
    SemanticAnalyzerAgent::Options options;
    options.analysis = analysis;
    const SemanticAnalyzerAgent analyzer(options);
    Coverage coverage;
    for (const std::string& source : sources) {
      expect_matches_recompute(analyzer, source, coverage);
    }
    EXPECT_EQ(coverage.programs, sources.size());
    EXPECT_GT(coverage.lowered, 0u);
    EXPECT_GT(coverage.parse_failures, 0u);
    EXPECT_GT(coverage.guarded, 0u);
  }
}

TEST(AnalyzerOracle, CompiledConfigMatchesPassEnabled) {
  std::vector<qasm::lint::LintConfig> configs;
  for (const qasm::AnalyzerOptions& analysis : analyzer_configurations()) {
    configs.push_back(analysis.to_lint_config());
  }
  // An explicit per-pass entry wins over a disabled group, both ways.
  qasm::lint::LintConfig overrides;
  overrides.disabled_groups.insert("abstract.");
  overrides.passes["abstract.trivial-gate"].enabled = true;
  overrides.passes["resource.uncomputed-ancilla"].enabled = false;
  configs.push_back(overrides);
  qasm::lint::LintConfig everything_off;
  for (const auto& pass : qasm::lint::PassRegistry::builtin().passes()) {
    everything_off.passes[std::string(pass->id())].enabled = false;
  }
  configs.push_back(everything_off);

  const auto& passes = qasm::lint::PassRegistry::builtin().passes();
  for (const qasm::lint::LintConfig& config : configs) {
    const qasm::lint::CompiledLintConfig compiled(config);
    ASSERT_EQ(compiled.enabled.size(), passes.size());
    for (std::size_t i = 0; i < passes.size(); ++i) {
      EXPECT_EQ(compiled.enabled[i], config.pass_enabled(passes[i]->id()))
          << passes[i]->id();
    }
    EXPECT_EQ(compiled.want_abstract, group_enabled(config, "abstract."));
    EXPECT_EQ(compiled.want_resources, group_enabled(config, "resource."));
  }
  EXPECT_TRUE(qasm::lint::CompiledLintConfig(overrides).want_abstract);
  EXPECT_FALSE(qasm::lint::CompiledLintConfig(everything_off).want_resources);
}

TEST(AnalyzerOracle, FlatOpGateMatchesRegistry) {
  std::vector<std::string> sources = gold_sources();
  const std::vector<std::string> generated = simlm_sources();
  sources.insert(sources.end(), generated.begin(), generated.end());
  // Legacy aliases, an unknown mnemonic and a guarded gate.
  sources.push_back(R"(import qiskit;
circuit main(q: 3, c: 1) {
  cnot q[0], q[1];
  toffoli q[0], q[1], q[2];
  u3(0.1, 0.2, 0.3) q[0];
  frobnicate q[1];
  measure q[0] -> c[0];
  if (c[0] == 1) cx q[1], q[2];
}
)");
  const qasm::LanguageRegistry& language = qasm::LanguageRegistry::current();
  std::size_t gates = 0;
  std::size_t unresolved = 0;
  for (const std::string& source : sources) {
    const qasm::ParseResult parsed = qasm::parse(source);
    if (!parsed.ok()) continue;
    const qasm::lint::ProgramFacts facts =
        qasm::lint::ProgramFacts::compute(*parsed.program);
    for (const qasm::lint::CircuitFacts& circuit : facts.circuits) {
      for (const qasm::lint::FlatOp& op : circuit.ops) {
        const auto* gate = std::get_if<qasm::GateStmt>(op.stmt);
        if (gate == nullptr) {
          EXPECT_FALSE(op.gate.has_value()) << source;
          continue;
        }
        ++gates;
        const std::optional<sim::GateKind> want =
            language.resolve_gate(gate->name);
        EXPECT_EQ(op.gate, want) << gate->name;
        if (!want.has_value()) ++unresolved;
      }
    }
  }
  EXPECT_GT(gates, 0u);
  EXPECT_GT(unresolved, 0u);
}

TEST(AnalyzerOracle, GuardedProgramWhoseReachabilityChangesLints) {
  // The abstract interpreter proves the guard false (c[1] records a
  // measurement of |0>), so the reachability-aware lattice never sees
  // the cx touch q[2], and resource.uncomputed-ancilla stays quiet. The
  // entry summary is reachability-free and still counts the cx. Reusing
  // the reachability-free lattice for this circuit would wrongly flag
  // q[2].
  const std::string source = R"(import qiskit;
circuit main(q: 3, c: 2) {
  h q[0];
  measure q[1] -> c[1];
  if (c[1] == 1) cx q[0], q[2];
  measure q[0] -> c[0];
}
)";
  Coverage coverage;
  for (const qasm::AnalyzerOptions& analysis : analyzer_configurations()) {
    SemanticAnalyzerAgent::Options options;
    options.analysis = analysis;
    expect_matches_recompute(SemanticAnalyzerAgent(options), source, coverage);
  }
  EXPECT_EQ(coverage.guarded, coverage.programs);

  const StaticReport with_reachability =
      *SemanticAnalyzerAgent().analyze(source);
  EXPECT_EQ(with_reachability.resources.two_qubit_count, 1u);
  EXPECT_EQ(with_reachability.error_trace.find("uncomputed-ancilla"),
            std::string::npos);
  SemanticAnalyzerAgent::Options degraded;
  degraded.analysis.abstract_lints = false;
  EXPECT_NE(SemanticAnalyzerAgent(degraded).analyze(source)->error_trace.find(
                "uncomputed-ancilla"),
            std::string::npos);
}

}  // namespace
}  // namespace qcgen
