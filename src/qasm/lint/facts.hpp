#pragma once
// ProgramFacts: shared dataflow context for lint passes.
//
// Computed once per driver invocation, so each pass gets register
// tables, a flattened operation list (if-nesting resolved into guard
// chains) and per-qubit / per-clbit def-use timelines without paying
// its own AST walk. Passes that need ordering ("was this qubit measured
// before that gate?") read the per-bit event chains; passes that need
// reachability (dead-code) walk the flat op list.

#include <cstddef>
#include <optional>
#include <vector>

#include "qasm/ast.hpp"
#include "sim/gates.hpp"

namespace qcgen::qasm {

/// Registers beyond this size are rejected outright (guards the
/// per-qubit bookkeeping against absurd declarations like
/// `q: 999999999999`, which model-corrupted text can produce).
constexpr std::size_t kMaxRegisterSize = 1 << 20;

namespace lint {

/// One executable operation after flattening if-statement nesting.
/// `stmt` is always the innermost non-if statement; `guards` is the
/// chain of enclosing conditions, outermost first (empty = unguarded).
struct FlatOp {
  const Stmt* stmt = nullptr;
  std::vector<const IfStmt*> guards;
  int line = 0;
  /// Resolved kind of a gate statement's mnemonic (current or legacy
  /// alias), from LanguageRegistry::current().resolve_gate; empty for
  /// unknown mnemonics and for non-gate statements.
  std::optional<sim::GateKind> gate;

  bool guarded() const { return !guards.empty(); }
  /// Indentation depth of the statement in canonical printing.
  int indent() const { return 1 + static_cast<int>(guards.size()); }
};

/// Per-qubit timeline event. `op` indexes CircuitFacts::ops.
struct QubitEvent {
  enum class Kind { kGate, kMeasure, kReset, kBarrier };
  Kind kind = Kind::kGate;
  std::size_t op = 0;
};

/// Per-clbit timeline event. `op` indexes CircuitFacts::ops.
struct ClbitEvent {
  enum class Kind { kWrite, kRead };
  Kind kind = Kind::kWrite;
  std::size_t op = 0;
};

/// Dataflow facts for one circuit.
struct CircuitFacts {
  const CircuitDecl* circuit = nullptr;
  /// False for circuits the structure checks reject outright (zero
  /// qubits, implausibly large registers, empty body); other passes
  /// skip those, mirroring the legacy analyzer's early bail-out.
  bool analyzable = false;
  /// Flattened body in program order.
  std::vector<FlatOp> ops;
  /// True when some op sits under an if-guard. Only such circuits can
  /// have reachability verdicts other than "always runs".
  bool has_guarded_op = false;
  /// Event timeline per qubit / clbit, program order. Out-of-range
  /// register references are *not* recorded (bounds errors are the gate
  /// pass's job); `measure_all` with too few classical bits records no
  /// events either, matching the legacy analyzer.
  std::vector<std::vector<QubitEvent>> qubit_events;
  std::vector<std::vector<ClbitEvent>> clbit_events;
  /// True when any measure statement (even a bounds-broken one) or a
  /// well-formed measure_all appears.
  bool has_measurement = false;
};

struct ProgramFacts {
  const Program* program = nullptr;
  std::vector<CircuitFacts> circuits;

  static ProgramFacts compute(const Program& program);
};

/// Qubit operand indices of a flat op that are in range for `circ`
/// (gate operands, measured qubit, reset qubit; empty for barriers).
std::vector<std::size_t> qubit_operands(const FlatOp& op,
                                        const CircuitDecl& circ);

}  // namespace lint
}  // namespace qcgen::qasm
