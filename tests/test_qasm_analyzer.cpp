// Tests for the semantic analyzer and the language registry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qasm/analyzer.hpp"
#include "qasm/parser.hpp"

namespace qcgen::qasm {
namespace {

AnalysisReport analyze_source(const std::string& source,
                              const AnalyzerOptions& options = {}) {
  const ParseResult parsed = parse(source);
  EXPECT_TRUE(parsed.ok()) << format_error_trace(parsed.diagnostics);
  return analyze(*parsed.program, LanguageRegistry::current(), options);
}

bool has_code(const AnalysisReport& report, DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

TEST(Registry, ImportStatusClassification) {
  const auto& reg = LanguageRegistry::current();
  EXPECT_EQ(reg.import_status("qiskit"), ImportStatus::kCurrent);
  EXPECT_EQ(reg.import_status("qiskit.circuit.library"),
            ImportStatus::kCurrent);
  EXPECT_EQ(reg.import_status("qiskit.aqua"), ImportStatus::kDeprecated);
  EXPECT_EQ(reg.import_status("qiskit.execute"), ImportStatus::kDeprecated);
  EXPECT_EQ(reg.import_status("made.up.module"), ImportStatus::kUnknown);
}

TEST(Registry, ReplacementsExistForDeprecatedImports) {
  const auto& reg = LanguageRegistry::current();
  for (const std::string& dep : reg.deprecated_imports()) {
    EXPECT_TRUE(reg.import_replacement(dep).has_value()) << dep;
  }
  EXPECT_FALSE(reg.import_replacement("qiskit").has_value());
}

TEST(Registry, GateKnowledge) {
  const auto& reg = LanguageRegistry::current();
  EXPECT_TRUE(reg.is_known_gate("h"));
  EXPECT_TRUE(reg.is_known_gate("cnot"));  // legacy alias
  EXPECT_TRUE(reg.is_deprecated_gate_alias("cnot"));
  EXPECT_FALSE(reg.is_deprecated_gate_alias("cx"));
  EXPECT_FALSE(reg.is_known_gate("u2"));
}

TEST(Analyzer, CleanProgramPasses) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }");
  EXPECT_TRUE(report.ok()) << format_error_trace(report.diagnostics);
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(Analyzer, MissingQiskitImport) {
  const auto report = analyze_source(
      "import qiskit_aer; circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, DiagCode::kMissingQiskitImport));
}

TEST(Analyzer, DeprecatedImportIsErrorByDefault) {
  const auto report = analyze_source(
      "import qiskit; import qiskit.execute; "
      "circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, DiagCode::kDeprecatedImport));
  // Message carries the replacement suggestion for the repair agent.
  bool suggestion = false;
  for (const auto& d : report.diagnostics) {
    if (d.code == DiagCode::kDeprecatedImport &&
        d.message.find("qiskit.primitives") != std::string::npos) {
      suggestion = true;
    }
  }
  EXPECT_TRUE(suggestion);
}

TEST(Analyzer, DeprecatedImportDowngradable) {
  AnalyzerOptions options;
  options.deprecated_import_is_error = false;
  const auto report = analyze_source(
      "import qiskit; import qiskit.aqua; "
      "circuit main(q: 1, c: 1) { h q[0]; measure_all; }",
      options);
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.warning_count(), 1u);
}

TEST(Analyzer, UnknownImport) {
  const auto report = analyze_source(
      "import qiskit; import quantum_tools; "
      "circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kUnknownImport));
}

TEST(Analyzer, UnknownGate) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { hadamard q[0]; measure_all; }");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, DiagCode::kUnknownGate));
}

TEST(Analyzer, DeprecatedAliasWarnsByDefault) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cnot q[0], q[1]; "
      "measure_all; }");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(has_code(report, DiagCode::kDeprecatedGateAlias));
}

TEST(Analyzer, DeprecatedAliasAsError) {
  AnalyzerOptions options;
  options.deprecated_alias_is_error = true;
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { cnot q[0], q[1]; "
      "measure_all; }",
      options);
  EXPECT_FALSE(report.ok());
}

TEST(Analyzer, WrongArity) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { cx q[0]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kWrongArity));
}

TEST(Analyzer, WrongParamCount) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { rz q[0]; h(0.5) q[0]; "
      "measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kWrongParamCount));
}

TEST(Analyzer, QubitOutOfRange) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { h q[2]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kQubitOutOfRange));
}

TEST(Analyzer, ClbitOutOfRange) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 1) { measure q[0] -> c[1]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kClbitOutOfRange));
}

TEST(Analyzer, DuplicateQubitOperand) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { cx q[1], q[1]; "
      "measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kDuplicateQubit));
}

TEST(Analyzer, DuplicateOperandsOfLongAndShortListsReportAlike) {
  // Lists of more than eight operands are checked on a bitmap the pass
  // keeps across gates and circuits; a list of three is scanned. Both
  // report the repeated qubits (the driver merges identical reports of
  // one line), and a long list's marks do not leak into the next gate.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 10, c: 10) {"
      " ccx q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[3], q[0], q[3];"
      " ccx q[9], q[8], q[7], q[6], q[5], q[4], q[3], q[2], q[1], q[0];"
      " ccx q[1], q[1], q[1]; measure_all; }"
      " circuit wide(q: 12, c: 12) {"
      " ccx q[11], q[10], q[9], q[8], q[7], q[6], q[5], q[4], q[11];"
      " measure_all; }");
  std::vector<std::string> repeats;
  for (const auto& d : report.diagnostics) {
    if (d.code == DiagCode::kDuplicateQubit) repeats.push_back(d.message);
  }
  const std::vector<std::string> expected = {
      "gate 'ccx' uses qubit 3 more than once",
      "gate 'ccx' uses qubit 0 more than once",
      "gate 'ccx' uses qubit 1 more than once",
      "gate 'ccx' uses qubit 11 more than once",
  };
  EXPECT_EQ(repeats, expected);
}

TEST(Analyzer, NoMeasurementWarning) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[0]; }");
  EXPECT_TRUE(report.ok());  // warning only
  EXPECT_TRUE(has_code(report, DiagCode::kNoMeasurement));
}

TEST(Analyzer, ConditionOnUnwrittenClbit) {
  // The clbit is written *later*, so the dataflow lint classifies the
  // read as stale (misordered) rather than never-written.
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { if (c[0] == 1) x q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kConditionOnStaleClbit));
  // No write anywhere keeps the original never-written code.
  const auto unwritten = analyze_source(
      "import qiskit; circuit main(q: 2, c: 2) { if (c[1] == 1) x q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(unwritten, DiagCode::kConditionOnUnwrittenClbit));
}

TEST(Analyzer, UnusedQubitWarning) {
  const auto report = analyze_source(
      "import qiskit; circuit main(q: 3, c: 3) { h q[0]; "
      "measure q[0] -> c[0]; }");
  EXPECT_TRUE(has_code(report, DiagCode::kUnusedQubit));
  AnalyzerOptions options;
  options.warn_unused_qubits = false;
  const auto quiet = analyze_source(
      "import qiskit; circuit main(q: 3, c: 3) { h q[0]; "
      "measure q[0] -> c[0]; }",
      options);
  EXPECT_FALSE(has_code(quiet, DiagCode::kUnusedQubit));
}

TEST(Analyzer, EmptyCircuitAndZeroQubits) {
  const auto empty_body =
      analyze_source("import qiskit; circuit main(q: 2, c: 2) { }");
  EXPECT_TRUE(has_code(empty_body, DiagCode::kEmptyCircuit));
  const auto zero = analyze_source("import qiskit; circuit main(q: 0) { h q[0]; }");
  EXPECT_TRUE(has_code(zero, DiagCode::kEmptyCircuit));
}

TEST(Analyzer, DuplicateCircuitNames) {
  const auto report = analyze_source(
      "import qiskit;"
      "circuit m(q: 1, c: 1) { h q[0]; measure_all; }"
      "circuit m(q: 1, c: 1) { x q[0]; measure_all; }");
  EXPECT_TRUE(has_code(report, DiagCode::kDuplicateCircuitName));
}

TEST(Analyzer, NoCircuitAtAll) {
  const ParseResult parsed = parse("import qiskit;");
  ASSERT_TRUE(parsed.ok());
  const auto report = analyze(*parsed.program);
  EXPECT_TRUE(has_code(report, DiagCode::kNoCircuit));
}

TEST(Analyzer, OnlySyntacticErrorsClassification) {
  const auto syntactic = analyze_source(
      "import qiskit; import qiskit.aqua; "
      "circuit main(q: 1, c: 1) { h q[0]; measure_all; }");
  EXPECT_TRUE(syntactic.only_syntactic_errors());
  const auto semantic = analyze_source(
      "import qiskit; circuit main(q: 1, c: 1) { h q[5]; measure_all; }");
  EXPECT_FALSE(semantic.only_syntactic_errors());
}

}  // namespace
}  // namespace qcgen::qasm
