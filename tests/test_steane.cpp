// Tests for the Steane [[7,1,3]] code.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qec/steane.hpp"
#include "sim/tableau.hpp"

namespace qcgen::qec {
namespace {

TEST(Steane, StabilizerStructure) {
  const SteaneCode code;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(code.x_stabilizers()[k].size(), 4u);
    EXPECT_EQ(code.z_stabilizers()[k].size(), 4u);
  }
  // Check k-th stabilizer covers qubits with bit k set in (index+1).
  EXPECT_EQ(code.x_stabilizers()[0], (std::vector<std::size_t>{0, 2, 4, 6}));
  EXPECT_EQ(code.x_stabilizers()[1], (std::vector<std::size_t>{1, 2, 5, 6}));
  EXPECT_EQ(code.x_stabilizers()[2], (std::vector<std::size_t>{3, 4, 5, 6}));
}

TEST(Steane, SyndromeIdentifiesEverySingleError) {
  const SteaneCode code;
  for (std::size_t q = 0; q < SteaneCode::kNumQubits; ++q) {
    std::vector<std::uint8_t> err(SteaneCode::kNumQubits, 0);
    err[q] = 1;
    const std::uint8_t syn = code.x_syndrome(err);
    EXPECT_EQ(syn, static_cast<std::uint8_t>(q + 1));
    EXPECT_EQ(code.correction_qubit(syn), q);
  }
}

TEST(Steane, TrivialSyndromeMeansNoCorrection) {
  const SteaneCode code;
  EXPECT_EQ(code.correction_qubit(0), SteaneCode::kNumQubits);
  EXPECT_THROW(code.correction_qubit(8), InvalidArgumentError);
}

TEST(Steane, CorrectsAllWeightOneErrorsPerfectly) {
  // At very low p the failure rate must vanish quadratically: all single
  // errors are corrected, so failures need >= 2 errors.
  const SteaneCode code;
  const double rate = code.logical_error_rate(0.001, 50000, 3);
  EXPECT_LT(rate, 5e-4);
}

TEST(Steane, ErrorRateMonotonicInP) {
  const SteaneCode code;
  const double low = code.logical_error_rate(0.01, 20000, 5);
  const double high = code.logical_error_rate(0.10, 20000, 5);
  EXPECT_LT(low, high);
}

TEST(Steane, PseudoThresholdExists) {
  // Below the pseudo-threshold the encoded error rate beats the raw
  // physical rate.
  const SteaneCode code;
  const double p = 0.005;
  const double encoded = code.logical_error_rate(p, 60000, 7);
  EXPECT_LT(encoded, p);
}

TEST(Steane, EncodingCircuitStabilizesLogicalZero) {
  // After the encoding circuit, every stabilizer generator measures +1:
  // check via parity measurements on a tableau.
  const SteaneCode code;
  sim::Tableau tab(SteaneCode::kNumQubits);
  Rng rng(1);
  const sim::Circuit enc = code.encoding_circuit();
  for (const auto& op : enc.operations()) {
    if (op.kind == sim::GateKind::kMeasure ||
        op.kind == sim::GateKind::kBarrier) {
      continue;
    }
    tab.apply(op);
  }
  // Z-type stabilizers are Z-strings: expectation must be +1.
  for (const auto& support : code.z_stabilizers()) {
    std::vector<std::size_t> qubits(support.begin(), support.end());
    EXPECT_EQ(tab.pauli_z_expectation(qubits), 1);
  }
  // Logical Z (all 7 qubits) must be +1 for logical |0>.
  EXPECT_EQ(tab.pauli_z_expectation({0, 1, 2, 3, 4, 5, 6}), 1);
}

TEST(Steane, ErrorVectorSizeValidated) {
  const SteaneCode code;
  EXPECT_THROW(code.x_syndrome(std::vector<std::uint8_t>(5, 0)),
               InvalidArgumentError);
  EXPECT_THROW(code.z_syndrome(std::vector<std::uint8_t>(8, 0)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace qcgen::qec
