// Unit tests for the circuit IR and the reference circuit library.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/circuit.hpp"

namespace qcgen::sim {
namespace {

TEST(Circuit, ConstructionValidation) {
  EXPECT_THROW(Circuit(0, 0), InvalidArgumentError);
  Circuit c(2, 2);
  EXPECT_EQ(c.num_qubits(), 2u);
  EXPECT_EQ(c.num_clbits(), 2u);
  EXPECT_TRUE(c.empty());
}

TEST(Circuit, AppendValidatesQubitRange) {
  Circuit c(2, 2);
  EXPECT_THROW(c.h(2), InvalidArgumentError);
  EXPECT_THROW(c.cx(0, 5), InvalidArgumentError);
  c.h(1);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, AppendRejectsDuplicateOperands) {
  Circuit c(3, 3);
  EXPECT_THROW(c.cx(1, 1), InvalidArgumentError);
  EXPECT_THROW(c.ccx(0, 2, 2), InvalidArgumentError);
}

TEST(Circuit, AppendValidatesParamCount) {
  Circuit c(1, 1);
  Operation op;
  op.kind = GateKind::kRZ;
  op.qubits = {0};
  EXPECT_THROW(c.append(op), InvalidArgumentError);  // missing param
  op.params = {0.5};
  c.append(op);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, MeasureRequiresClbit) {
  Circuit c(1, 1);
  Operation op;
  op.kind = GateKind::kMeasure;
  op.qubits = {0};
  EXPECT_THROW(c.append(op), InvalidArgumentError);
  op.clbit = 0;
  c.append(op);
  Operation gate;
  gate.kind = GateKind::kX;
  gate.qubits = {0};
  gate.clbit = 0;  // non-measure with clbit target
  EXPECT_THROW(c.append(gate), InvalidArgumentError);
}

TEST(Circuit, MeasureAllNeedsEnoughClbits) {
  Circuit c(3, 2);
  EXPECT_THROW(c.measure_all(), InvalidArgumentError);
  Circuit ok(3, 3);
  ok.measure_all();
  EXPECT_EQ(ok.size(), 3u);
}

TEST(Circuit, ConditionValidation) {
  Circuit c(2, 1);
  Operation op;
  op.kind = GateKind::kX;
  op.qubits = {0};
  op.condition = Condition{3, true};  // clbit out of range
  EXPECT_THROW(c.append(op), InvalidArgumentError);
  op.condition = Condition{0, true};
  c.append(op);
  EXPECT_TRUE(c.has_conditions());
}

/// Message of the InvalidArgumentError that appending `op` to `c` throws
/// ("" if it does not throw).
std::string append_error(Circuit& c, Operation op) {
  try {
    c.append(std::move(op));
  } catch (const InvalidArgumentError& e) {
    return e.what();
  }
  return "";
}

Operation make_op(GateKind kind, std::vector<std::size_t> qubits,
                  std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

TEST(CircuitPreconditions, EveryAppendFailureBranchKeepsItsMessage) {
  Circuit c(4, 2);
  EXPECT_EQ(append_error(c, make_op(GateKind::kCX, {0})),
            "operation cx expects 2 qubits, got 1");
  EXPECT_EQ(append_error(c, make_op(GateKind::kRZ, {0})),
            "operation rz expects 1 params, got 0");
  EXPECT_EQ(append_error(c, make_op(GateKind::kH, {4})),
            "qubit index 4 out of range for 4-qubit circuit");
  EXPECT_EQ(append_error(c, make_op(GateKind::kCCX, {0, 2, 2})),
            "duplicate qubit operand in ccx");
  EXPECT_EQ(append_error(c, make_op(GateKind::kMeasure, {0})),
            "measure requires a classical bit target");
  Operation far_clbit = make_op(GateKind::kMeasure, {0});
  far_clbit.clbit = 2;
  EXPECT_EQ(append_error(c, far_clbit), "classical bit index 2 out of range");
  Operation gate_with_clbit = make_op(GateKind::kX, {0});
  gate_with_clbit.clbit = 0;
  EXPECT_EQ(append_error(c, gate_with_clbit),
            "only measure may carry a classical bit target");
  Operation far_condition = make_op(GateKind::kX, {0});
  far_condition.condition = Condition{5, true};
  EXPECT_EQ(append_error(c, far_condition),
            "condition classical bit out of range");
  EXPECT_TRUE(c.empty());
}

TEST(CircuitPreconditions, RangeIsCheckedBeforeDuplicates) {
  Circuit c(4, 0);
  // Operand 5 is both out of range and repeated; each operand is
  // range-checked before it is compared with the earlier ones.
  EXPECT_EQ(append_error(c, make_op(GateKind::kCX, {5, 5})),
            "qubit index 5 out of range for 4-qubit circuit");
  EXPECT_EQ(append_error(c, make_op(GateKind::kCX, {1, 1})),
            "duplicate qubit operand in cx");
  // Arity is checked before params, params before operands.
  EXPECT_EQ(append_error(c, make_op(GateKind::kCPhase, {9})),
            "operation cp expects 2 qubits, got 1");
  EXPECT_EQ(append_error(c, make_op(GateKind::kCPhase, {9, 9})),
            "operation cp expects 1 params, got 0");
}

TEST(CircuitPreconditions, WideBarrierOperandsAreChecked) {
  Circuit c(12, 0);
  Operation barrier = make_op(GateKind::kBarrier, {});
  for (std::size_t q = 0; q < 12; ++q) barrier.qubits.push_back(q);
  EXPECT_EQ(append_error(c, barrier), "");
  barrier.qubits.back() = 3;
  EXPECT_EQ(append_error(c, barrier), "duplicate qubit operand in barrier");
  barrier.qubits.back() = 12;
  EXPECT_EQ(append_error(c, barrier),
            "qubit index 12 out of range for 12-qubit circuit");
  EXPECT_EQ(c.size(), 1u);
}

TEST(CircuitPreconditions, LiteralRequireAndEnsureThrowTheirText) {
  try {
    require(false, "literal precondition text");
    FAIL() << "require(false, ...) did not throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_STREQ(e.what(), "literal precondition text");
  }
  try {
    ensure(false, "literal invariant text");
    FAIL() << "ensure(false, ...) did not throw";
  } catch (const InternalError& e) {
    EXPECT_STREQ(e.what(), "literal invariant text");
  }
  EXPECT_NO_THROW(require(true, "never built"));
  EXPECT_NO_THROW(ensure(true, "never built"));
}

TEST(Circuit, DepthComputation) {
  Circuit c(3, 3);
  c.h(0);
  c.h(1);
  EXPECT_EQ(c.depth(), 1u);
  c.cx(0, 1);
  EXPECT_EQ(c.depth(), 2u);
  c.x(2);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, BarrierSynchronisesDepth) {
  Circuit c(2, 2);
  c.h(0);
  c.barrier();
  c.x(1);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, CountOpsExcludesBarrier) {
  Circuit c(2, 2);
  c.h(0);
  c.h(1);
  c.barrier();
  c.cx(0, 1);
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at(GateKind::kH), 2u);
  EXPECT_EQ(counts.at(GateKind::kCX), 1u);
  EXPECT_EQ(counts.count(GateKind::kBarrier), 0u);
}

TEST(Circuit, MultiQubitGateCount) {
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.ccx(0, 1, 2);
  c.measure_all();
  EXPECT_EQ(c.multi_qubit_gate_count(), 2u);
}

TEST(Circuit, RequiresTrajectoriesDetection) {
  Circuit plain(2, 2);
  plain.h(0);
  plain.measure_all();
  EXPECT_FALSE(plain.requires_trajectories());

  Circuit midmeas(2, 2);
  midmeas.measure(0, 0);
  midmeas.x(0);
  EXPECT_TRUE(midmeas.requires_trajectories());

  Circuit with_reset(1, 1);
  with_reset.reset(0);
  EXPECT_TRUE(with_reset.requires_trajectories());

  EXPECT_TRUE(circuits::teleportation(0.5).requires_trajectories());
}

TEST(Circuit, IsCliffordClassification) {
  Circuit clifford(2, 2);
  clifford.h(0);
  clifford.cx(0, 1);
  clifford.s(1);
  clifford.measure_all();
  EXPECT_TRUE(clifford.is_clifford());
  clifford.t(0);
  EXPECT_FALSE(clifford.is_clifford());
}

TEST(Circuit, ComposeAppendsOps) {
  Circuit a(3, 3);
  a.h(0);
  Circuit b(2, 2);
  b.cx(0, 1);
  a.compose(b);
  EXPECT_EQ(a.size(), 2u);
  Circuit too_big(4, 4);
  EXPECT_THROW(b.compose(too_big), InvalidArgumentError);
}

TEST(Circuit, ToStringMentionsOps) {
  Circuit c(2, 2);
  c.rz(0.25, 1);
  c.measure(1, 0);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("rz(0.25) q1"), std::string::npos);
  EXPECT_NE(s.find("measure q1 -> c0"), std::string::npos);
}

TEST(ReferenceCircuits, BellPairStructure) {
  const Circuit c = circuits::bell_pair();
  EXPECT_EQ(c.num_qubits(), 2u);
  EXPECT_TRUE(c.has_measurements());
  EXPECT_TRUE(c.is_clifford());
}

TEST(ReferenceCircuits, GhzSizes) {
  for (std::size_t n = 2; n <= 6; ++n) {
    const Circuit c = circuits::ghz(n);
    EXPECT_EQ(c.num_qubits(), n);
    EXPECT_EQ(c.count_ops().at(GateKind::kCX), n - 1);
  }
  EXPECT_THROW(circuits::ghz(1), InvalidArgumentError);
}

TEST(ReferenceCircuits, DeutschJozsaOracleChoice) {
  const Circuit constant = circuits::deutsch_jozsa(3, true);
  const Circuit balanced = circuits::deutsch_jozsa(3, false);
  EXPECT_EQ(constant.count_ops().count(GateKind::kCX), 0u);
  EXPECT_EQ(balanced.count_ops().at(GateKind::kCX), 3u);
  EXPECT_EQ(constant.num_qubits(), 4u);
}

TEST(ReferenceCircuits, GroverParameterValidation) {
  EXPECT_THROW(circuits::grover(1, 0, 1), InvalidArgumentError);
  EXPECT_THROW(circuits::grover(2, 4, 1), InvalidArgumentError);
  const Circuit c = circuits::grover(3, 5, 2);
  EXPECT_EQ(c.num_qubits(), 3u);
}

TEST(ReferenceCircuits, QftGateCount) {
  const Circuit c = circuits::qft(4);
  EXPECT_EQ(c.count_ops().at(GateKind::kH), 4u);
  EXPECT_EQ(c.count_ops().at(GateKind::kCPhase), 6u);
  EXPECT_EQ(c.count_ops().at(GateKind::kSwap), 2u);
}

TEST(ReferenceCircuits, TeleportationUsesConditions) {
  const Circuit c = circuits::teleportation(1.0);
  EXPECT_TRUE(c.has_conditions());
  EXPECT_EQ(c.num_qubits(), 3u);
  EXPECT_EQ(c.num_clbits(), 3u);
}

TEST(ReferenceCircuits, BernsteinVaziraniSecretEncoding) {
  const Circuit c = circuits::bernstein_vazirani(0b101, 3);
  EXPECT_EQ(c.count_ops().at(GateKind::kCX), 2u);
  EXPECT_THROW(circuits::bernstein_vazirani(8, 3), InvalidArgumentError);
}

TEST(ReferenceCircuits, QuantumWalkBounds) {
  const Circuit c = circuits::quantum_walk(2, 3);
  EXPECT_EQ(c.num_qubits(), 3u);
  EXPECT_THROW(circuits::quantum_walk(3, 1), InvalidArgumentError);
}

}  // namespace
}  // namespace qcgen::sim
