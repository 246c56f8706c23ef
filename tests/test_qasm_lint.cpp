// Tests for the lint-pass framework: the pass registry, per-pass
// configuration, the dataflow passes (positive and negative cases for
// each), and fix-it round-trips (applying the fix-it must make the
// diagnostic disappear on re-analysis).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "llm/tasks.hpp"
#include "llm/templates.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/builder.hpp"
#include "qasm/lint/abstract/interpreter.hpp"
#include "qasm/lint/driver.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "sim/statevector.hpp"

namespace qcgen::qasm {
namespace {

AnalysisReport analyze_source(const std::string& source,
                              const AnalyzerOptions& options = {}) {
  const ParseResult parsed = parse(source);
  EXPECT_TRUE(parsed.ok()) << format_error_trace(parsed.diagnostics);
  return analyze(*parsed.program, LanguageRegistry::current(), options);
}

bool has_code(const AnalysisReport& report, DiagCode code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* find_code(const AnalysisReport& report, DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

/// Applies every fix-it and re-analyzes the patched source.
AnalysisReport fix_and_reanalyze(const std::string& source,
                                 const AnalysisReport& report,
                                 std::size_t expect_applied) {
  const FixItResult fixed = apply_fixits(source, report.diagnostics);
  EXPECT_EQ(fixed.applied, expect_applied) << "patched:\n" << fixed.source;
  return analyze_source(fixed.source);
}

// ---------------------------------------------------------------------
// Registry / driver / config
// ---------------------------------------------------------------------

TEST(LintRegistry, BuiltinCarriesAllPasses) {
  const auto& registry = lint::PassRegistry::builtin();
  const char* expected[] = {
      "core.imports",           "core.structure",
      "core.gates",             "core.measurement",
      "core.unused-qubit",      "dataflow.clbit-liveness",
      "dataflow.gate-after-measure", "dataflow.double-measure",
      "dataflow.dead-code",     "dataflow.redundant-pair",
      "abstract.deterministic-measurement",
      "abstract.unreachable-conditional",
      "abstract.redundant-reset",
      "abstract.trivial-gate",
      "abstract.topology-conformance",
  };
  for (const char* id : expected) {
    const lint::LintPass* pass = registry.find(id);
    ASSERT_NE(pass, nullptr) << id;
    EXPECT_EQ(pass->id(), id);
    EXPECT_FALSE(pass->description().empty()) << id;
  }
  EXPECT_EQ(registry.find("core.nonexistent"), nullptr);
  EXPECT_GE(registry.passes().size(), std::size(expected));
}

TEST(LintDriver, DiagnosticsCarryPassIds) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; h q[0]; "
      "measure q[0] -> c[0]; }");
  const Diagnostic* diag = find_code(report, DiagCode::kRedundantGatePair);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->pass_id, "dataflow.redundant-pair");
}

TEST(LintDriver, DisabledGroupSuppressesDataflowPasses) {
  const std::string source =
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; h q[0]; "
      "measure q[0] -> c[0]; }";
  const ParseResult parsed = parse(source);
  ASSERT_TRUE(parsed.ok());
  lint::LintConfig config;
  config.disabled_groups.insert("dataflow.");
  const auto report = lint::run_passes(*parsed.program,
                                       LanguageRegistry::current(),
                                       lint::PassRegistry::builtin(), config);
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
  // An explicit per-pass entry wins over the group disable.
  config.passes["dataflow.redundant-pair"].enabled = true;
  const auto restored = lint::run_passes(*parsed.program,
                                         LanguageRegistry::current(),
                                         lint::PassRegistry::builtin(), config);
  EXPECT_TRUE(has_code(restored, DiagCode::kRedundantGatePair));
}

TEST(LintDriver, SeverityOverrides) {
  const std::string source =
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; h q[0]; "
      "measure q[0] -> c[0]; }";
  const ParseResult parsed = parse(source);
  ASSERT_TRUE(parsed.ok());
  lint::LintConfig config;
  config.passes["dataflow.redundant-pair"].severity = Severity::kError;
  const auto report = lint::run_passes(*parsed.program,
                                       LanguageRegistry::current(),
                                       lint::PassRegistry::builtin(), config);
  const Diagnostic* diag = find_code(report, DiagCode::kRedundantGatePair);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kError);
  // Per-code override beats the pass-level one.
  config.code_severity[DiagCode::kRedundantGatePair] = Severity::kWarning;
  const auto again = lint::run_passes(*parsed.program,
                                      LanguageRegistry::current(),
                                      lint::PassRegistry::builtin(), config);
  EXPECT_EQ(find_code(again, DiagCode::kRedundantGatePair)->severity,
            Severity::kWarning);
}

TEST(LintDriver, EmitFixitsOffStripsPatches) {
  AnalyzerOptions options;
  options.emit_fixits = false;
  const auto report = analyze_source(
      "import qiskit;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n",
      options);
  for (const auto& d : report.diagnostics) {
    EXPECT_FALSE(d.fixit.has_value()) << d.message;
  }
}

TEST(LintDriver, AnalyzerOptionCanDisableDataflow) {
  AnalyzerOptions options;
  options.dataflow_lints = false;
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; h q[0]; "
      "measure q[0] -> c[0]; x q[0]; }",
      options);
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
  EXPECT_FALSE(has_code(report, DiagCode::kGateAfterMeasurement));
  EXPECT_FALSE(has_code(report, DiagCode::kDeadOperation));
}

// ---------------------------------------------------------------------
// dataflow.gate-after-measure
// ---------------------------------------------------------------------

TEST(GateAfterMeasure, FlagsUnconditionalGateAfterMeasurement) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; x q[0]; measure q[1] -> c[1]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kGateAfterMeasurement));
}

TEST(GateAfterMeasure, GuardedCorrectionIsExempt) {
  // The teleportation idiom: measure, then conditionally correct.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; if (c[0] == 1) x q[1]; "
      "measure q[1] -> c[1]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kGateAfterMeasurement));
}

TEST(GateAfterMeasure, ResetRearmsTheQubit) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; reset q[0]; x q[0]; "
      "measure q[0] -> c[1]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kGateAfterMeasurement));
}

TEST(GateAfterMeasure, OtherQubitsUnaffected) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { measure q[0] -> c[0]; "
      "h q[1]; measure q[1] -> c[1]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kGateAfterMeasurement));
}

// ---------------------------------------------------------------------
// dataflow.double-measure
// ---------------------------------------------------------------------

TEST(DoubleMeasure, FlagsBackToBackMeasurement) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; measure q[0] -> c[1]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kDoubleMeasurement));
  // Different target clbits: flagged, but no delete fix-it (removal
  // would leave c[1] unwritten).
  EXPECT_FALSE(
      find_code(report, DiagCode::kDoubleMeasurement)->fixit.has_value());
}

TEST(DoubleMeasure, SameClbitCarriesDeleteFixit) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kDoubleMeasurement);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kDoubleMeasurement));
}

TEST(DoubleMeasure, InterveningResetOrGateIsFine) {
  const auto with_reset = analyze_source(
      "import qiskit; circuit main(q: 1, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; reset q[0]; measure q[0] -> c[1]; }");
  EXPECT_FALSE(has_code(with_reset, DiagCode::kDoubleMeasurement));
  const auto with_gate = analyze_source(
      "import qiskit; circuit main(q: 1, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; reset q[0]; h q[0]; "
      "measure q[0] -> c[1]; }");
  EXPECT_FALSE(has_code(with_gate, DiagCode::kDoubleMeasurement));
}

// ---------------------------------------------------------------------
// dataflow.clbit-liveness
// ---------------------------------------------------------------------

TEST(ClbitLiveness, StaleWhenWriteComesLater) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { if (c[0] == 1) x q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kConditionOnStaleClbit));
  EXPECT_FALSE(has_code(report, DiagCode::kConditionOnUnwrittenClbit));
}

TEST(ClbitLiveness, UnwrittenWhenNoWriteExists) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { if (c[1] == 1) x q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kConditionOnUnwrittenClbit));
  EXPECT_FALSE(has_code(report, DiagCode::kConditionOnStaleClbit));
}

TEST(ClbitLiveness, ReadAfterWriteIsClean) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { measure q[0] -> c[0]; "
      "if (c[0] == 1) x q[1]; measure q[1] -> c[1]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kConditionOnStaleClbit));
  EXPECT_FALSE(has_code(report, DiagCode::kConditionOnUnwrittenClbit));
}

// ---------------------------------------------------------------------
// dataflow.dead-code
// ---------------------------------------------------------------------

TEST(DeadCode, FlagsGateWithNoPathToMeasurement) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 2, c: 1) {\n"
      "  h q[0];\n"
      "  x q[1];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kDeadOperation);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->line, 4);
  ASSERT_TRUE(diag->fixit.has_value());
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kDeadOperation));
}

TEST(DeadCode, EntanglementPropagatesLiveness) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 1) { h q[0]; "
      "cx q[0], q[1]; measure q[1] -> c[0]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kDeadOperation));
}

TEST(DeadCode, ResetSeversThePast) {
  // The h is wiped out by the unconditional reset before measurement.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; reset q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kDeadOperation));
}

TEST(DeadCode, SkipsCircuitsWithoutMeasurement) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kNoMeasurement));
  EXPECT_FALSE(has_code(report, DiagCode::kDeadOperation));
}

TEST(DeadCode, ReportCountIsCapped) {
  // 40 dead gates on q[1], each on its own line (the driver dedupes
  // identical same-line diagnostics); the pass caps per-circuit reports
  // at 16 and appends one summary diagnostic.
  std::string source = "import qiskit;\ncircuit main(q: 2, c: 1) {\n";
  for (int i = 0; i < 40; ++i) source += "x q[1];\n";
  source += "measure q[0] -> c[0];\n}\n";
  const auto report = analyze_source(source);
  const auto dead = std::count_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == DiagCode::kDeadOperation; });
  EXPECT_EQ(dead, 17);  // 16 individual + 1 summary
}

// ---------------------------------------------------------------------
// dataflow.redundant-pair
// ---------------------------------------------------------------------

TEST(RedundantPair, FlagsAdjacentSelfInversePair) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kRedundantGatePair);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_EQ(diag->fixit->line_begin, 3);
  EXPECT_EQ(diag->fixit->line_end, 4);
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, BarrierBreaksAdjacency) {
  // The DJ constant-oracle shape: h ... barrier ... h is deliberate.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; barrier; "
      "h q[0]; measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, InterleavedOperandBreaksAdjacency) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { cx q[0], q[1]; "
      "x q[1]; cx q[0], q[1]; measure_all; }");
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, OperandOrderMattersForCx) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { cx q[0], q[1]; "
      "cx q[1], q[0]; measure_all; }");
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, CzIsOperandSymmetric) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cz q[0], q[1]; "
      "cz q[1], q[0]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, NonSelfInverseGatesAreFine) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { t q[0]; t q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair));
}

TEST(RedundantPair, ResolvesAliasesBeforeComparing) {
  // cnot and cx are the same gate; the pair still cancels.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cnot q[0], q[1]; "
      "cx q[0], q[1]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kRedundantGatePair));
}

// ---------------------------------------------------------------------
// Fix-its on the core passes
// ---------------------------------------------------------------------

TEST(CoreFixits, DeprecatedImportReplacement) {
  const std::string source =
      "import qiskit;\n"
      "import qiskit.execute;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kDeprecatedImport);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_EQ(diag->fixit->line_begin, 2);
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kDeprecatedImport));
  EXPECT_TRUE(fixed.ok());
}

TEST(CoreFixits, UnknownImportDeletion) {
  const std::string source =
      "import qiskit;\n"
      "import made.up.module;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kUnknownImport);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kUnknownImport));
}

TEST(CoreFixits, MissingImportInsertion) {
  const std::string source =
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kMissingQiskitImport);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_TRUE(diag->fixit->is_insertion());
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kMissingQiskitImport));
}

TEST(CoreFixits, DeprecatedAliasRename) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 2, c: 2) {\n"
      "  h q[0];\n"
      "  cnot q[0], q[1];\n"
      "  measure_all;\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kDeprecatedGateAlias);
  ASSERT_NE(diag, nullptr);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_NE(diag->fixit->replacement.find("cx"), std::string::npos);
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kDeprecatedGateAlias));
}

// ---------------------------------------------------------------------
// Fix-it application mechanics
// ---------------------------------------------------------------------

TEST(FixItApply, GuardRefusesMismatchedLines) {
  const FixIt fix{2, 2, "import qiskit.primitives;", "qiskit.execute"};
  EXPECT_FALSE(apply_fixit("line one\nline two\n", fix).has_value());
  EXPECT_TRUE(
      apply_fixit("line one\nimport qiskit.execute;\n", fix).has_value());
}

TEST(FixItApply, RangeChecks) {
  EXPECT_FALSE(apply_fixit("only\n", FixIt{0, 0, "x", ""}).has_value());
  EXPECT_FALSE(apply_fixit("only\n", FixIt{1, 9, "x", ""}).has_value());
  // Insertion past the end appends.
  const auto appended = apply_fixit("only\n", FixIt{2, 0, "tail", ""});
  ASSERT_TRUE(appended.has_value());
  EXPECT_EQ(*appended, "only\ntail\n");
}

TEST(FixItApply, MultipleFixitsApplyBottomUp) {
  // Deprecated import (line 2) + redundant pair (lines 4-5): both must
  // apply in one apply_fixits call without line-number skew.
  const std::string source =
      "import qiskit;\n"
      "import qiskit.execute;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const auto fixed = fix_and_reanalyze(source, report, 2);
  EXPECT_FALSE(has_code(fixed, DiagCode::kDeprecatedImport));
  EXPECT_FALSE(has_code(fixed, DiagCode::kRedundantGatePair));
  EXPECT_TRUE(fixed.ok());
}

// ---------------------------------------------------------------------
// Abstract interpretation: stabilizer-domain lints
// ---------------------------------------------------------------------

TEST(AbstractLint, DeterministicMeasurementPositive) {
  const std::string source =
      "import qiskit; circuit main(q: 1, c: 1) { x q[0]; "
      "measure q[0] -> c[0]; }";
  const auto report = analyze_source(source);
  const Diagnostic* diag =
      find_code(report, DiagCode::kDeterministicMeasurement);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kWarning);
  EXPECT_EQ(diag->pass_id, "abstract.deterministic-measurement");
  EXPECT_NE(diag->message.find("always 1"), std::string::npos);
  EXPECT_FALSE(diag->fixit.has_value());  // informational, nothing to patch

  // The underlying fact: the interpreter proved the outcome is |1>.
  const ParseResult parsed = parse(source);
  ASSERT_TRUE(parsed.ok());
  const auto facts = lint::ProgramFacts::compute(*parsed.program);
  const auto abs = lint::abstract::AbstractFacts::compute(facts);
  ASSERT_EQ(abs.circuits.size(), 1u);
  ASSERT_TRUE(abs.circuits[0].computed);
  const auto& measure_fact = abs.circuits[0].ops.back();
  EXPECT_TRUE(measure_fact.has_outcome);
  EXPECT_EQ(measure_fact.outcome, sim::SignBit::kOne);
}

TEST(AbstractLint, RandomMeasurementNotFlagged) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kDeterministicMeasurement));
}

TEST(AbstractLint, BellAndGhzMakeNoDeterministicClaim) {
  // Entangled outcomes are correlated but random; claiming a constant
  // would be unsound, so the interpreter must stay silent.
  for (const llm::AlgorithmId id :
       {llm::AlgorithmId::kBellPair, llm::AlgorithmId::kGhz}) {
    llm::TaskSpec task;
    task.algorithm = id;
    const auto report =
        analyze_source(print_program(llm::gold_program(task)));
    EXPECT_FALSE(has_code(report, DiagCode::kDeterministicMeasurement))
        << llm::algorithm_name(id);
  }
}

TEST(AbstractLint, DeutschJozsaConstantOracleProvedConstant) {
  // DJ with a constant oracle is all-Clifford and deterministic: the
  // input register provably reads back |0...0>.
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kDeutschJozsa;  // default: constant
  const auto report = analyze_source(print_program(llm::gold_program(task)));
  const Diagnostic* diag =
      find_code(report, DiagCode::kDeterministicMeasurement);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->message.find("always 0"), std::string::npos);
}

TEST(AbstractLint, NonCliffordGateWidensToUnknown) {
  // h t h is genuinely random from |0>; more importantly the t must
  // widen the qubit so no claim survives, even though the surrounding
  // gates are Clifford.
  const auto hth = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; t q[0]; h q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(hth, DiagCode::kDeterministicMeasurement));
  // ry(0) is the identity, but the domain widens on the *gate kind*, not
  // the angle — no claim, by design (soundness beats precision).
  const auto ry = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { ry(0) q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(ry, DiagCode::kDeterministicMeasurement));
}

TEST(AbstractLint, TrivialControlledGateFlaggedAndFixable) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 2, c: 2) {\n"
      "  cx q[0], q[1];\n"
      "  h q[0];\n"
      "  measure_all;\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kTrivialControlledGate);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->pass_id, "abstract.trivial-gate");
  EXPECT_EQ(diag->line, 3);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_EQ(diag->fixit->guard, "cx");
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kTrivialControlledGate));
}

TEST(AbstractLint, ActiveControlNotFlagged) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }");
  EXPECT_FALSE(has_code(report, DiagCode::kTrivialControlledGate));
}

TEST(AbstractLint, SymmetricDiagonalGateTrivialOnEitherOperand) {
  // cz is diagonal and symmetric: q[1] still being |0> makes it trivial
  // even though the first operand is in superposition.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cz q[0], q[1]; "
      "h q[1]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kTrivialControlledGate));
}

TEST(AbstractLint, RedundantResetFlaggedAndFixable) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  reset q[0];\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag = find_code(report, DiagCode::kRedundantReset);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->pass_id, "abstract.redundant-reset");
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_EQ(diag->fixit->guard, "reset");
  const auto fixed = fix_and_reanalyze(source, report, 1);
  EXPECT_FALSE(has_code(fixed, DiagCode::kRedundantReset));
}

TEST(AbstractLint, ResetAfterSuperpositionNotFlagged) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; reset q[0]; "
      "h q[0]; measure q[0] -> c[0]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantReset));
}

TEST(AbstractLint, UnreachableConditionalFlaggedAndFixable) {
  // q[0] is never excited, so the measured bit is provably 0 and the
  // guard can never fire.
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 2, c: 2) {\n"
      "  measure q[0] -> c[0];\n"
      "  if (c[0] == 1) x q[1];\n"
      "  h q[1];\n"
      "  measure q[1] -> c[1];\n"
      "}\n";
  const auto report = analyze_source(source);
  const Diagnostic* diag =
      find_code(report, DiagCode::kUnreachableConditional);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->pass_id, "abstract.unreachable-conditional");
  EXPECT_EQ(diag->line, 4);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_EQ(diag->fixit->guard, "if");
  const FixItResult fixed = apply_fixits(source, report.diagnostics);
  EXPECT_EQ(fixed.source.find("if ("), std::string::npos);
  const auto again = analyze_source(fixed.source);
  EXPECT_FALSE(has_code(again, DiagCode::kUnreachableConditional));
}

TEST(AbstractLint, ConditionalOnRandomBitNotFlagged) {
  // The teleportation idiom: guards on genuinely random measurement
  // outcomes must stay un-flagged, and the maybe-taken branch must
  // widen its targets (no deterministic claim on q[1] either).
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; "
      "measure q[0] -> c[0]; if (c[0] == 1) x q[1]; "
      "measure q[1] -> c[1]; }");
  EXPECT_FALSE(has_code(report, DiagCode::kUnreachableConditional));
  EXPECT_FALSE(has_code(report, DiagCode::kDeterministicMeasurement));
}

TEST(AbstractLint, TeleportationGoldTemplateStaysClean) {
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kTeleportation;
  const auto report = analyze_source(print_program(llm::gold_program(task)));
  EXPECT_FALSE(has_code(report, DiagCode::kUnreachableConditional));
  EXPECT_FALSE(has_code(report, DiagCode::kDeterministicMeasurement));
  EXPECT_FALSE(has_code(report, DiagCode::kRedundantReset));
  EXPECT_FALSE(has_code(report, DiagCode::kTrivialControlledGate));
}

TEST(AbstractLint, GroupDisableSuppressesAbstractPasses) {
  AnalyzerOptions options;
  options.abstract_lints = false;
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { x q[0]; "
      "measure q[0] -> c[0]; }",
      options);
  EXPECT_FALSE(has_code(report, DiagCode::kDeterministicMeasurement));
}

TEST(AbstractLint, TopologyConformance) {
  const std::string source =
      "import qiskit; circuit main(q: 3, c: 3) { h q[0]; cx q[0], q[2]; "
      "cx q[0], q[1]; cx q[1], q[2]; measure_all; }";
  // Without a committed topology the pass stays silent.
  EXPECT_FALSE(has_code(analyze_source(source), DiagCode::kNonAdjacentQubits));
  AnalyzerOptions options;
  options.topology = lint::CouplingMap{"linear-3", 3, {{0, 1}, {1, 2}}};
  const auto report = analyze_source(source, options);
  const Diagnostic* diag = find_code(report, DiagCode::kNonAdjacentQubits);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->pass_id, "abstract.topology-conformance");
  // cx q[0], q[2] needs one swap on the line; the adjacent pairs pass.
  EXPECT_NE(diag->message.find("~1 swap(s)"), std::string::npos);
  const std::size_t flagged = static_cast<std::size_t>(std::count_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) {
        return d.code == DiagCode::kNonAdjacentQubits;
      }));
  EXPECT_EQ(flagged, 1u);
}

TEST(AbstractLint, TopologyBeyondDeviceQubits) {
  AnalyzerOptions options;
  options.topology = lint::CouplingMap{"tiny-2", 2, {{0, 1}}};
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 3, c: 3) { h q[0]; cx q[0], q[2]; "
      "cx q[0], q[1]; measure_all; }",
      options);
  const Diagnostic* diag = find_code(report, DiagCode::kNonAdjacentQubits);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->message.find("beyond the 2 qubits"), std::string::npos);
}

// ---------------------------------------------------------------------
// Driver ordering, dedupe, JSON serialisation
// ---------------------------------------------------------------------

TEST(LintDriver, DiagnosticsSortedAndDeduped) {
  const std::string source =
      "import qiskit.execute;\n"
      "circuit main(q: 2, c: 2) {\n"
      "  x q[1]; x q[1];\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n";
  const auto report = analyze_source(source);
  // Stable order: (line, pass_id) non-decreasing.
  for (std::size_t i = 0; i + 1 < report.diagnostics.size(); ++i) {
    const Diagnostic& a = report.diagnostics[i];
    const Diagnostic& b = report.diagnostics[i + 1];
    EXPECT_LE(std::tie(a.line, a.pass_id), std::tie(b.line, b.pass_id));
  }
  // The two identical dead `x q[1]` ops share line, code and message:
  // exactly one survives.
  const std::size_t dead = static_cast<std::size_t>(std::count_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == DiagCode::kDeadOperation; }));
  EXPECT_EQ(dead, 1u);
  // No duplicate (line, code, message) triple anywhere.
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    for (std::size_t j = i + 1; j < report.diagnostics.size(); ++j) {
      const Diagnostic& a = report.diagnostics[i];
      const Diagnostic& b = report.diagnostics[j];
      EXPECT_FALSE(a.line == b.line && a.code == b.code &&
                   a.message == b.message)
          << a.message;
    }
  }
}

TEST(DiagnosticsJson, SerialisesCodesAndFixits) {
  const auto report = analyze_source(
      "import qiskit.execute;\n"
      "circuit main(q: 1, c: 1) {\n"
      "  h q[0];\n"
      "  measure q[0] -> c[0];\n"
      "}\n");
  ASSERT_FALSE(report.diagnostics.empty());
  const Json json = diagnostics_to_json(report.diagnostics);
  ASSERT_TRUE(json.is_array());
  const std::string dumped = json.dump();
  EXPECT_NE(dumped.find("\"deprecated-import\""), std::string::npos);
  EXPECT_NE(dumped.find("\"severity\""), std::string::npos);
  EXPECT_NE(dumped.find("\"pass\""), std::string::npos);
  // The deprecated import carries a replacement fix-it.
  EXPECT_NE(dumped.find("\"replacement\""), std::string::npos);
}

TEST(DiagnosticsJson, FixitlessDiagnosticSerialisesNull) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { x q[0]; "
      "measure q[0] -> c[0]; }");
  ASSERT_TRUE(has_code(report, DiagCode::kDeterministicMeasurement));
  const std::string dumped = diagnostics_to_json(report.diagnostics).dump();
  EXPECT_NE(dumped.find("\"deterministic-measurement\""), std::string::npos);
  EXPECT_NE(dumped.find("null"), std::string::npos);
}

// ---------------------------------------------------------------------
// Soundness: every claimed constant must match the exact distribution
// ---------------------------------------------------------------------

TEST(AbstractSoundness, ClaimedConstantsMatchExactDistribution) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    const Program gold = llm::gold_program(task);
    const std::string source = print_program(gold);
    const ParseResult parsed = parse(source);
    ASSERT_TRUE(parsed.ok()) << source;
    const auto facts = lint::ProgramFacts::compute(*parsed.program);
    const auto abs = lint::abstract::AbstractFacts::compute(facts);
    ASSERT_EQ(abs.circuits.size(), facts.circuits.size());

    // Gather (clbit, expected bit) claims from the entry circuit.
    ASSERT_FALSE(facts.circuits.empty());
    const auto& cf = facts.circuits[0];
    const auto& acf = abs.circuits[0];
    std::vector<std::pair<std::size_t, char>> claims;
    for (std::size_t i = 0; i < cf.ops.size(); ++i) {
      const auto& fact = acf.ops[i];
      if (!acf.computed || !fact.has_outcome ||
          fact.reach != lint::abstract::OpFact::Reach::kRun) {
        continue;
      }
      if (const auto* m = std::get_if<MeasureStmt>(cf.ops[i].stmt)) {
        claims.emplace_back(m->clbit.index,
                            fact.outcome == sim::SignBit::kOne ? '1' : '0');
      } else if (std::holds_alternative<MeasureAllStmt>(*cf.ops[i].stmt)) {
        for (std::size_t j = 0; j < fact.constant_bits.size(); ++j) {
          claims.emplace_back(j, fact.constant_bits[j]);
        }
      }
    }
    if (claims.empty()) continue;

    // A claim is about the measurement's outcome; comparing against the
    // final register is only valid when that clbit is written once.
    const auto written_once = [&](std::size_t clbit) {
      std::size_t writes = 0;
      for (const auto& ev : cf.clbit_events[clbit]) {
        if (ev.kind == lint::ClbitEvent::Kind::kWrite) ++writes;
      }
      return writes == 1;
    };
    const sim::Circuit circuit = build_circuit(*parsed.program);
    const sim::Distribution dist = sim::exact_distribution(circuit);
    ASSERT_FALSE(dist.empty()) << llm::algorithm_name(id);
    for (const auto& [key, p] : dist) {
      if (p < 1e-9) continue;
      for (const auto& [clbit, bit] : claims) {
        if (!written_once(clbit)) continue;
        ASSERT_LT(clbit, key.size());
        // Distribution keys are Qiskit convention: clbit 0 rightmost.
        EXPECT_EQ(key[key.size() - 1 - clbit], bit)
            << llm::algorithm_name(id) << " claimed c[" << clbit << "] == "
            << bit << " but outcome \"" << key << "\" has p=" << p;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Gold programs stay lint-clean
// ---------------------------------------------------------------------

TEST(LintGoldPrograms, NoErrorsAndNoFalsePositiveDataflowBugs) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    const Program gold = llm::gold_program(task);
    const std::string source = print_program(gold);
    const ParseResult parsed = parse(source);
    ASSERT_TRUE(parsed.ok()) << source;
    const auto report =
        analyze(*parsed.program, LanguageRegistry::current(), {});
    EXPECT_TRUE(report.ok()) << llm::algorithm_name(id) << "\n"
                             << format_error_trace(report.diagnostics);
    // These dataflow codes on a gold program would be false positives.
    EXPECT_FALSE(has_code(report, DiagCode::kGateAfterMeasurement))
        << llm::algorithm_name(id);
    EXPECT_FALSE(has_code(report, DiagCode::kDoubleMeasurement))
        << llm::algorithm_name(id);
    EXPECT_FALSE(has_code(report, DiagCode::kRedundantGatePair))
        << llm::algorithm_name(id);
    EXPECT_FALSE(has_code(report, DiagCode::kConditionOnStaleClbit))
        << llm::algorithm_name(id);
    EXPECT_FALSE(has_code(report, DiagCode::kConditionOnUnwrittenClbit))
        << llm::algorithm_name(id);
  }
}

// Behaviour preservation: applying dead-code / redundant-pair fix-its
// must leave a parseable program whose diagnostics are a subset issue —
// re-analysis shows no new errors.
TEST(LintGoldPrograms, FixitApplicationNeverIntroducesErrors) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    const std::string source = print_program(llm::gold_program(task));
    const ParseResult parsed = parse(source);
    ASSERT_TRUE(parsed.ok());
    const auto report =
        analyze(*parsed.program, LanguageRegistry::current(), {});
    const FixItResult fixed = apply_fixits(source, report.diagnostics);
    const ParseResult reparsed = parse(fixed.source);
    ASSERT_TRUE(reparsed.ok()) << llm::algorithm_name(id) << "\n"
                               << fixed.source;
    const auto again =
        analyze(*reparsed.program, LanguageRegistry::current(), {});
    EXPECT_TRUE(again.ok()) << llm::algorithm_name(id) << "\n"
                            << format_error_trace(again.diagnostics);
  }
}

// ---------------------------------------------------------------------
// Driver dedupe: the key must include the pass id
// ---------------------------------------------------------------------

/// Minimal pass emitting the same diagnostic `repeats` times; used to
/// probe the driver's dedupe key.
class StubPass : public lint::LintPass {
 public:
  StubPass(std::string id, int repeats)
      : id_(std::move(id)), repeats_(repeats) {}
  std::string_view id() const override { return id_; }
  std::string_view description() const override { return "test stub"; }
  void run(const lint::PassContext&,
           lint::DiagnosticSink& sink) const override {
    for (int i = 0; i < repeats_; ++i) {
      sink.report(Severity::kWarning, DiagCode::kDeadOperation,
                  "stub finding", 2);
    }
  }

 private:
  std::string id_;
  int repeats_;
};

// Two distinct passes flagging the same (code, line, message) are
// independent findings and must both survive dedupe; the same pass
// repeating itself is a duplicate and must collapse.
TEST(LintDriver, DedupeKeyIncludesPassId) {
  const ParseResult parsed = parse(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; "
      "measure q[0] -> c[0]; }");
  ASSERT_TRUE(parsed.ok());
  lint::PassRegistry registry;
  registry.add(std::make_unique<StubPass>("test.alpha", 2))
      .add(std::make_unique<StubPass>("test.beta", 1));
  const auto report = lint::run_passes(*parsed.program,
                                       LanguageRegistry::current(), registry,
                                       lint::LintConfig{});
  ASSERT_EQ(report.diagnostics.size(), 2u)
      << format_error_trace(report.diagnostics);
  EXPECT_EQ(report.diagnostics[0].pass_id, "test.alpha");
  EXPECT_EQ(report.diagnostics[1].pass_id, "test.beta");
  EXPECT_EQ(report.diagnostics[0].message, report.diagnostics[1].message);
}

// ---------------------------------------------------------------------
// apply_fixits conflict handling
// ---------------------------------------------------------------------

Diagnostic diag_with_fixit(FixIt fix) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = DiagCode::kDeadOperation;
  d.message = "test";
  d.line = fix.line_begin;
  d.fixit = std::move(fix);
  return d;
}

TEST(ApplyFixIts, OverlappingReplacementRejectsSecondDeterministically) {
  const std::string source = "line a\nline b\nline c\n";
  // Bottom-up order applies the line-2 fix first; the [1,2] fix then
  // conflicts with the already-claimed line 2.
  const std::vector<Diagnostic> diags = {
      diag_with_fixit(FixIt{1, 2, "patched one", ""}),
      diag_with_fixit(FixIt{2, 2, "patched two", ""}),
  };
  const FixItResult result = apply_fixits(source, diags);
  EXPECT_EQ(result.applied, 1u);
  EXPECT_EQ(result.source, "line a\npatched two\nline c\n");
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].winner, (FixIt{2, 2, "patched two", ""}));
  EXPECT_EQ(result.conflicts[0].rejected, (FixIt{1, 2, "patched one", ""}));
  EXPECT_NE(result.conflicts[0].to_string().find("conflicts with"),
            std::string::npos);
}

TEST(ApplyFixIts, SameLineTieKeepsFirstInDiagnosticOrder) {
  const std::string source = "one\ntwo\n";
  const std::vector<Diagnostic> diags = {
      diag_with_fixit(FixIt{2, 2, "first wins", ""}),
      diag_with_fixit(FixIt{2, 2, "second loses", ""}),
  };
  const FixItResult result = apply_fixits(source, diags);
  EXPECT_EQ(result.applied, 1u);
  EXPECT_EQ(result.source, "one\nfirst wins\n");
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].rejected.replacement, "second loses");
}

TEST(ApplyFixIts, InsertionsBeforeSameLineNeverConflict) {
  const std::string source = "one\ntwo\n";
  const std::vector<Diagnostic> diags = {
      diag_with_fixit(FixIt{2, 1, "alpha", ""}),  // insertion before line 2
      diag_with_fixit(FixIt{2, 1, "beta", ""}),
  };
  const FixItResult result = apply_fixits(source, diags);
  EXPECT_EQ(result.applied, 2u);
  EXPECT_TRUE(result.conflicts.empty());
  EXPECT_EQ(result.source, "one\nbeta\nalpha\ntwo\n");
}

TEST(ApplyFixIts, InsertionInsideReplacedRangeConflicts) {
  const std::string source = "one\ntwo\nthree\n";
  const std::vector<Diagnostic> diags = {
      diag_with_fixit(FixIt{2, 1, "inserted", ""}),  // before line 2
      diag_with_fixit(FixIt{1, 3, "replaced all", ""}),
  };
  const FixItResult result = apply_fixits(source, diags);
  // The insertion (line_begin 2) applies first bottom-up; the [1,3]
  // replacement then straddles the insertion point and is rejected.
  EXPECT_EQ(result.applied, 1u);
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0].rejected, (FixIt{1, 3, "replaced all", ""}));
}

TEST(ApplyFixItsDeathTest, FatalPolicyAbortsOnConflict) {
  const std::string source = "one\ntwo\n";
  const std::vector<Diagnostic> diags = {
      diag_with_fixit(FixIt{1, 2, "a", ""}),
      diag_with_fixit(FixIt{2, 2, "b", ""}),
  };
  EXPECT_DEATH(apply_fixits(source, diags, FixItConflictPolicy::kFatal),
               "fatal fix-it conflict");
}

}  // namespace
}  // namespace qcgen::qasm
