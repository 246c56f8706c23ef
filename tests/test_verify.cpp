// Tests for the translation-validation engine: the equivalence checker's
// three engines (structural, Clifford canonical form, phase-polynomial
// path sums) plus the budgeted exact-simulation fallback and the certified
// fix-it application layer.
//
// The soundness sweep cross-checks every template circuit (and a
// semantics-breaking mutation of each) against exact reference
// distributions: a proved-equal verdict with differing distributions, or
// a proved-different verdict with matching ones, is a checker bug.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/parser.hpp"
#include "qasm/verify/certify.hpp"
#include "qasm/verify/equivalence.hpp"
#include "sim/circuit.hpp"
#include "sim/statevector.hpp"

namespace qcgen::qasm::verify {
namespace {

using sim::Circuit;

Certificate prove(const Circuit& lhs, const Circuit& rhs) {
  return check_equivalence(lhs, rhs);
}

// ---------------------------------------------------------------------
// Structural fast path
// ---------------------------------------------------------------------

TEST(Equivalence, IdenticalCircuitsProveStructurally) {
  const Circuit bell = sim::circuits::bell_pair();
  const Certificate cert = prove(bell, bell);
  EXPECT_TRUE(cert.proved_equal());
  EXPECT_EQ(cert.method, Method::kStructural);
  EXPECT_EQ(cert.contract, Contract::kDistribution);
}

TEST(Equivalence, NormalizationSeesThroughBarriersAndIdentities) {
  Circuit a(1, 0);
  a.h(0);
  Circuit b(1, 0);
  b.barrier();
  b.id(0);
  b.h(0);
  const Certificate cert = prove(a, b);
  EXPECT_TRUE(cert.proved_equal());
  EXPECT_EQ(cert.method, Method::kStructural);
  EXPECT_EQ(cert.contract, Contract::kUnitary);
}

// ---------------------------------------------------------------------
// Self-inverse pairs (unitary contract, Clifford engine)
// ---------------------------------------------------------------------

TEST(Equivalence, SelfInversePairsCancel) {
  const auto pair_cancels = [](auto&& emit_pair, std::size_t qubits) {
    Circuit with(qubits, 0);
    emit_pair(with);
    const Circuit empty(qubits, 0);
    const Certificate cert = prove(with, empty);
    EXPECT_TRUE(cert.proved_equal()) << cert.note;
    EXPECT_EQ(cert.contract, Contract::kUnitary);
  };
  pair_cancels([](Circuit& c) { c.h(0); c.h(0); }, 1);
  pair_cancels([](Circuit& c) { c.x(0); c.x(0); }, 1);
  pair_cancels([](Circuit& c) { c.y(0); c.y(0); }, 1);
  pair_cancels([](Circuit& c) { c.z(0); c.z(0); }, 1);
  pair_cancels([](Circuit& c) { c.s(0); c.sdg(0); }, 1);
  pair_cancels([](Circuit& c) { c.t(0); c.tdg(0); }, 1);
  pair_cancels([](Circuit& c) { c.cx(0, 1); c.cx(0, 1); }, 2);
  pair_cancels([](Circuit& c) { c.cz(0, 1); c.cz(1, 0); }, 2);
  pair_cancels([](Circuit& c) { c.swap(0, 1); c.swap(0, 1); }, 2);
}

TEST(Equivalence, SwapEqualsThreeCx) {
  Circuit lhs(2, 0);
  lhs.swap(0, 1);
  Circuit rhs(2, 0);
  rhs.cx(0, 1);
  rhs.cx(1, 0);
  rhs.cx(0, 1);
  const Certificate cert = prove(lhs, rhs);
  EXPECT_TRUE(cert.proved_equal()) << cert.note;
  EXPECT_EQ(cert.contract, Contract::kUnitary);

  // Same identity under the distribution contract.
  Circuit ml(2, 2);
  ml.h(0);
  ml.compose(lhs);
  ml.measure_all();
  Circuit mr(2, 2);
  mr.h(0);
  mr.compose(rhs);
  mr.measure_all();
  const Certificate mcert = prove(ml, mr);
  EXPECT_TRUE(mcert.proved_equal()) << mcert.note;
  EXPECT_EQ(mcert.contract, Contract::kDistribution);
}

TEST(Equivalence, CommutingReorderingsProveEqual) {
  // Z on the control commutes through CX.
  Circuit a(2, 2);
  a.h(0);
  a.z(0);
  a.cx(0, 1);
  a.measure_all();
  Circuit b(2, 2);
  b.h(0);
  b.cx(0, 1);
  b.z(0);
  b.measure_all();
  const Certificate cert = prove(a, b);
  EXPECT_TRUE(cert.proved_equal()) << cert.note;

  // Disjoint-support gates commute.
  Circuit c(2, 0);
  c.h(0);
  c.x(1);
  Circuit d(2, 0);
  d.x(1);
  d.h(0);
  EXPECT_TRUE(prove(c, d).proved_equal());
}

// ---------------------------------------------------------------------
// Clifford distribution engine: proofs of difference
// ---------------------------------------------------------------------

TEST(Equivalence, BellParityFlipIsProvedDifferentWithCounterexample) {
  const Circuit bell = sim::circuits::bell_pair();
  Circuit flipped(2, 2);
  flipped.h(0);
  flipped.cx(0, 1);
  flipped.x(0);  // breaks the c0 xor c1 = 0 parity
  flipped.measure_all();
  const Certificate cert = prove(bell, flipped);
  EXPECT_TRUE(cert.proved_different());
  EXPECT_EQ(cert.method, Method::kClifford);
  EXPECT_FALSE(cert.counterexample.empty());
}

TEST(Equivalence, DeterministicMeasurementFlipProvedDifferent) {
  Circuit zero(1, 1);
  zero.measure(0, 0);
  Circuit one(1, 1);
  one.x(0);
  one.measure(0, 0);
  const Certificate cert = prove(zero, one);
  EXPECT_TRUE(cert.proved_different());
  EXPECT_FALSE(cert.counterexample.empty());
}

TEST(Equivalence, MeasurePresenceMismatchProvedDifferent) {
  Circuit measured(1, 1);
  measured.h(0);
  measured.measure(0, 0);
  Circuit bare(1, 1);
  bare.h(0);
  EXPECT_TRUE(prove(measured, bare).proved_different());
}

// ---------------------------------------------------------------------
// Path-sum / phase-polynomial engine
// ---------------------------------------------------------------------

TEST(Equivalence, TTEqualsS) {
  Circuit tt(1, 0);
  tt.h(0);  // put a variable on the wire so the phases are observable
  tt.t(0);
  tt.t(0);
  Circuit s(1, 0);
  s.h(0);
  s.s(0);
  const Certificate cert = prove(tt, s);
  EXPECT_TRUE(cert.proved_equal()) << cert.note;
}

TEST(Equivalence, RotationPairCancels) {
  Circuit lhs(1, 0);
  lhs.h(0);
  lhs.rz(0.7, 0);
  lhs.rz(-0.7, 0);
  const Circuit rhs = [] {
    Circuit c(1, 0);
    c.h(0);
    return c;
  }();
  EXPECT_TRUE(prove(lhs, rhs).proved_equal());
}

TEST(Equivalence, RzEqualsPhaseUpToGlobalPhase) {
  Circuit rz(1, 0);
  rz.h(0);
  rz.rz(0.7, 0);
  Circuit p(1, 0);
  p.h(0);
  p.p(0.7, 0);
  EXPECT_TRUE(prove(rz, p).proved_equal());
}

TEST(Equivalence, ControlledPhaseDifferenceCaught) {
  Circuit a(2, 0);
  a.h(0);
  a.h(1);
  a.cp(0.5, 0, 1);
  Circuit b(2, 0);
  b.h(0);
  b.h(1);
  b.cp(0.9, 0, 1);
  const Certificate cert = prove(a, b);
  EXPECT_TRUE(cert.proved_different());
}

// ---------------------------------------------------------------------
// Exact-simulation fallback and its budget
// ---------------------------------------------------------------------

TEST(Equivalence, NonCliffordRotationsFallBackToExactSim) {
  Circuit a(1, 1);
  a.ry(0.3, 0);
  a.measure(0, 0);
  Circuit b(1, 1);
  b.ry(0.3, 0);
  b.barrier();
  b.measure(0, 0);
  const Certificate equal = prove(a, b);
  EXPECT_TRUE(equal.proved_equal()) << equal.note;

  Circuit c(1, 1);
  c.ry(0.4, 0);
  c.measure(0, 0);
  const Certificate different = prove(a, c);
  EXPECT_TRUE(different.proved_different());
  EXPECT_EQ(different.method, Method::kExactSim);
}

TEST(Equivalence, OverBudgetYieldsUnknownNeverAGuess) {
  Circuit a(13, 0);
  a.rx(0.3, 0);
  Circuit b(13, 0);
  b.rx(0.4, 0);
  const Certificate cert = check_equivalence(a, b);
  EXPECT_EQ(cert.verdict, Verdict::kUnknown);
  EXPECT_FALSE(cert.note.empty());
}

TEST(Equivalence, DisabledFallbackYieldsUnknown) {
  Options options;
  options.simulation_fallback = false;
  Circuit a(1, 0);
  a.ry(0.3, 0);
  Circuit b(1, 0);
  b.ry(0.4, 0);
  const Certificate cert = check_equivalence(a, b, options);
  EXPECT_EQ(cert.verdict, Verdict::kUnknown);
}

// ---------------------------------------------------------------------
// Soundness sweep: template corpus cross-checked vs exact distributions
// ---------------------------------------------------------------------

std::vector<std::pair<std::string, Circuit>> template_corpus() {
  using namespace sim::circuits;
  return {
      {"bell", bell_pair()},
      {"ghz3", ghz(3)},
      {"dj-const", deutsch_jozsa(3, true)},
      {"dj-balanced", deutsch_jozsa(3, false)},
      {"grover", grover(2, 0b11, 1)},
      {"teleport", teleportation(0.3)},
      {"bv", bernstein_vazirani(0b101, 3)},
      {"walk", quantum_walk(2, 2)},
  };
}

TEST(EquivalenceSoundness, TemplateSweepAgreesWithExactSimulation) {
  for (const auto& [name, circuit] : template_corpus()) {
    // Reflexivity.
    const Certificate self = prove(circuit, circuit);
    EXPECT_TRUE(self.proved_equal()) << name << ": " << self.note;

    // A bit-flip prepended to the circuit, cross-checked against the
    // exact reference distributions.
    Circuit mutated(circuit.num_qubits(), circuit.num_clbits());
    mutated.x(0);
    mutated.compose(circuit);
    const Certificate cert = prove(circuit, mutated);
    const double tvd = total_variation_distance(
        sim::exact_distribution(circuit), sim::exact_distribution(mutated));
    if (tvd > 1e-9) {
      EXPECT_TRUE(cert.proved_different())
          << name << ": tvd=" << tvd << " but verdict was not "
          << "proved-different (" << cert.note << ")";
    } else {
      EXPECT_FALSE(cert.proved_different())
          << name << ": distributions match but checker refuted";
    }
    EXPECT_NE(cert.verdict, Verdict::kUnknown) << name << ": " << cert.note;
  }
}

// ---------------------------------------------------------------------
// Certified fix-it application
// ---------------------------------------------------------------------

AnalysisReport analyze_source(const std::string& source) {
  const ParseResult parsed = parse(source);
  EXPECT_TRUE(parsed.ok());
  return analyze(*parsed.program);
}

const std::string kRedundantPairSource =
    "import qiskit;\n"
    "circuit main(q: 1, c: 1) {\n"
    "h q[0];\n"
    "h q[0];\n"
    "measure q[0] -> c[0];\n"
    "}\n";

TEST(CertifyFixIts, PreservingFixItAppliesWithCertificate) {
  const AnalysisReport report = analyze_source(kRedundantPairSource);
  const CertifiedFixIts result =
      certify_and_apply_fixits(kRedundantPairSource, report.diagnostics);
  EXPECT_GE(result.applied, 1u);
  EXPECT_GE(result.certified, 1u);
  EXPECT_EQ(result.rejected, 0u);
  // The patched program re-analyzes clean of the original finding.
  const AnalysisReport again = analyze_source(result.source);
  for (const Diagnostic& d : again.diagnostics) {
    EXPECT_NE(d.code, DiagCode::kRedundantGatePair);
  }
}

TEST(CertifyFixIts, ForgedNonPreservingFixItIsRejected) {
  const std::string source =
      "import qiskit;\n"
      "circuit main(q: 1, c: 1) {\n"
      "x q[0];\n"
      "measure q[0] -> c[0];\n"
      "}\n";
  // A lint pass (wrongly) claims the X is dead and removable; the
  // checker must catch the lie — removing it flips the measurement.
  Diagnostic forged;
  forged.severity = Severity::kWarning;
  forged.code = DiagCode::kDeadOperation;
  forged.message = "forged dead-operation claim";
  forged.line = 3;
  forged.fixit = FixIt{3, 3, "", "x q[0]"};
  const CertifiedFixIts result = certify_and_apply_fixits(source, {forged});
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.source, source);
  ASSERT_EQ(result.verify_diagnostics.size(), 1u);
  EXPECT_EQ(result.verify_diagnostics[0].code, DiagCode::kNonPreservingFixIt);
  EXPECT_EQ(result.verify_diagnostics[0].pass_id,
            "verify.translation-validation");
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_TRUE(result.records[0].certificate.proved_different());
}

TEST(CertifyFixIts, OverlappingFixItsConflictDeterministically) {
  const AnalysisReport report = analyze_source(kRedundantPairSource);
  // Duplicate every diagnostic: the copies target the same lines and
  // must be rejected as conflicts, not applied twice.
  std::vector<Diagnostic> doubled = report.diagnostics;
  doubled.insert(doubled.end(), report.diagnostics.begin(),
                 report.diagnostics.end());
  const CertifiedFixIts result =
      certify_and_apply_fixits(kRedundantPairSource, doubled);
  EXPECT_GE(result.rejected, 1u);
  bool saw_conflict = false;
  for (const Diagnostic& d : result.verify_diagnostics) {
    if (d.code == DiagCode::kFixItConflict) saw_conflict = true;
  }
  EXPECT_TRUE(saw_conflict);
  // Certified application refines plain application: same final source.
  EXPECT_EQ(result.source, apply_fixits(kRedundantPairSource, doubled).source);
}

TEST(CertifyFixIts, PreservationObligationsMatchDesign) {
  EXPECT_TRUE(fixit_claims_preservation(DiagCode::kRedundantGatePair));
  EXPECT_TRUE(fixit_claims_preservation(DiagCode::kDeadOperation));
  EXPECT_TRUE(fixit_claims_preservation(DiagCode::kDeprecatedImport));
  EXPECT_FALSE(fixit_claims_preservation(DiagCode::kNoMeasurement));
  EXPECT_FALSE(fixit_claims_preservation(DiagCode::kWrongArity));
}

// ---------------------------------------------------------------------
// certify_rewrite and certificate rendering
// ---------------------------------------------------------------------

TEST(CertifyRewrite, StageLabelsNonEqualVerdicts) {
  Circuit before(1, 1);
  before.x(0);
  before.measure(0, 0);
  Circuit after(1, 1);
  after.measure(0, 0);
  const Certificate cert = certify_rewrite(before, after, "repair");
  EXPECT_TRUE(cert.proved_different());
  EXPECT_NE(cert.note.find("stage repair"), std::string::npos);
  const std::string summary = certificate_summary(cert);
  EXPECT_NE(summary.find("proved-different"), std::string::npos);
  EXPECT_NE(summary.find(cert.counterexample), std::string::npos);
}

}  // namespace
}  // namespace qcgen::qasm::verify
