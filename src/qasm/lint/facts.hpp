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
#include <span>
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
  /// This op's run of CircuitFacts::operands (see qubit_operands).
  std::size_t operands_begin = 0;
  std::size_t operands_count = 0;

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
  /// Every op's in-range qubit operands, one run per op in op order, in
  /// one buffer for the circuit (read through qubit_operands).
  std::vector<std::size_t> operands;
  /// True when some op sits under an if-guard. Only such circuits can
  /// have reachability verdicts other than "always runs".
  bool has_guarded_op = false;
  /// Event timelines of every qubit and clbit, in program order, read
  /// through qubit_events(q) and clbit_events(c). Out-of-range register
  /// references are *not* recorded (bounds errors are the gate pass's
  /// job); `measure_all` with too few classical bits records no events
  /// either, matching the legacy analyzer. Stored as compressed rows: all
  /// qubit events in one buffer, all clbit events in another, and one
  /// offset table holding the num_qubits + 1 qubit row bounds followed by
  /// the num_clbits + 1 clbit row bounds. Empty for unanalyzable circuits.
  std::vector<QubitEvent> qubit_event_rows;
  std::vector<ClbitEvent> clbit_event_rows;
  std::vector<std::size_t> event_row_bounds;
  /// True when any measure statement (even a bounds-broken one) or a
  /// well-formed measure_all appears.
  bool has_measurement = false;

  /// Timeline of qubit `q` (< circuit->num_qubits of an analyzable
  /// circuit).
  std::span<const QubitEvent> qubit_events(std::size_t q) const {
    const std::size_t* bounds = event_row_bounds.data() + q;
    return {qubit_event_rows.data() + bounds[0], bounds[1] - bounds[0]};
  }
  /// Timeline of clbit `c` (< circuit->num_clbits of an analyzable
  /// circuit).
  std::span<const ClbitEvent> clbit_events(std::size_t c) const {
    const std::size_t* bounds =
        event_row_bounds.data() + circuit->num_qubits + 1 + c;
    return {clbit_event_rows.data() + bounds[0], bounds[1] - bounds[0]};
  }
};

struct ProgramFacts {
  const Program* program = nullptr;
  std::vector<CircuitFacts> circuits;

  static ProgramFacts compute(const Program& program);
};

/// Qubit operand indices of a flat op of `facts` that are in range for
/// its circuit (gate operands in order, measured qubit, reset qubit;
/// empty for barriers and measure_all). Computed once by
/// ProgramFacts::compute; the span views `facts.operands`.
inline std::span<const std::size_t> qubit_operands(const FlatOp& op,
                                                   const CircuitFacts& facts) {
  return {facts.operands.data() + op.operands_begin, op.operands_count};
}

}  // namespace lint
}  // namespace qcgen::qasm
