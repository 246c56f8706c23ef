#include "qasm/lint/facts.hpp"

#include <algorithm>

#include "qasm/language.hpp"

namespace qcgen::qasm::lint {

namespace {

void flatten_stmt(const Stmt& stmt, std::vector<const IfStmt*>& guards,
                  std::vector<FlatOp>& out) {
  if (const auto* nested = std::get_if<std::shared_ptr<IfStmt>>(&stmt)) {
    guards.push_back(nested->get());
    flatten_stmt((*nested)->body, guards, out);
    guards.pop_back();
    return;
  }
  FlatOp op;
  op.stmt = &stmt;
  op.guards = guards;
  op.line = stmt_line(stmt);
  if (const auto* gate = std::get_if<GateStmt>(&stmt)) {
    op.gate = LanguageRegistry::current().resolve_gate(gate->name);
  }
  out.push_back(std::move(op));
}

/// Upper bound on the in-range qubit operands of the circuit's ops.
std::size_t operand_bound(const CircuitFacts& facts) {
  std::size_t bound = 0;
  for (const FlatOp& op : facts.ops) {
    if (const auto* gate = std::get_if<GateStmt>(op.stmt)) {
      bound += gate->operands.size();
    } else if (std::holds_alternative<MeasureStmt>(*op.stmt) ||
               std::holds_alternative<ResetStmt>(*op.stmt)) {
      ++bound;
    }
  }
  return bound;
}

/// Appends the op's in-range qubit operands to the circuit's buffer.
void record_operands(FlatOp& op, CircuitFacts& facts) {
  const std::size_t num_qubits = facts.circuit->num_qubits;
  op.operands_begin = facts.operands.size();
  const auto add = [&](const RegRef& ref) {
    if (ref.index < num_qubits) facts.operands.push_back(ref.index);
  };
  if (const auto* gate = std::get_if<GateStmt>(op.stmt)) {
    for (const RegRef& ref : gate->operands) add(ref);
  } else if (const auto* measure = std::get_if<MeasureStmt>(op.stmt)) {
    add(measure->qubit);
  } else if (const auto* reset = std::get_if<ResetStmt>(op.stmt)) {
    add(reset->qubit);
  }
  op.operands_count = facts.operands.size() - op.operands_begin;
}

/// Calls qubit(q, kind, op) and clbit(c, kind, op) for every timeline
/// event of the circuit, in program order: an op's guard reads first
/// (outermost guard first), then what the statement itself does.
template <typename OnQubit, typename OnClbit>
void for_each_event(const CircuitFacts& facts, const OnQubit& qubit,
                    const OnClbit& clbit) {
  const CircuitDecl& circ = *facts.circuit;
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    const FlatOp& op = facts.ops[i];
    // Every guard in the chain reads its classical bit.
    for (const IfStmt* guard : op.guards) {
      if (guard->clbit.index < circ.num_clbits) {
        clbit(guard->clbit.index, ClbitEvent::Kind::kRead, i);
      }
    }
    std::visit(
        [&](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, GateStmt>) {
            for (const RegRef& ref : s.operands) {
              if (ref.index < circ.num_qubits) {
                qubit(ref.index, QubitEvent::Kind::kGate, i);
              }
            }
          } else if constexpr (std::is_same_v<T, MeasureStmt>) {
            if (s.qubit.index < circ.num_qubits) {
              qubit(s.qubit.index, QubitEvent::Kind::kMeasure, i);
            }
            if (s.clbit.index < circ.num_clbits) {
              clbit(s.clbit.index, ClbitEvent::Kind::kWrite, i);
            }
          } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
            if (circ.num_clbits >= circ.num_qubits) {
              for (std::size_t q = 0; q < circ.num_qubits; ++q) {
                qubit(q, QubitEvent::Kind::kMeasure, i);
                clbit(q, ClbitEvent::Kind::kWrite, i);
              }
            }
          } else if constexpr (std::is_same_v<T, BarrierStmt>) {
            for (std::size_t q = 0; q < circ.num_qubits; ++q) {
              qubit(q, QubitEvent::Kind::kBarrier, i);
            }
          } else if constexpr (std::is_same_v<T, ResetStmt>) {
            if (s.qubit.index < circ.num_qubits) {
              qubit(s.qubit.index, QubitEvent::Kind::kReset, i);
            }
          }
        },
        *op.stmt);
  }
}

/// Fills the compressed timelines in two walks: the first counts each
/// row's events, the second places them.
void record_events(CircuitFacts& facts) {
  const std::size_t num_qubits = facts.circuit->num_qubits;
  const std::size_t num_clbits = facts.circuit->num_clbits;
  // Row r of the qubit table counts into qubit_bounds[r + 1], then the
  // prefix sum turns qubit_bounds[r] into the row's first slot.
  facts.event_row_bounds.assign(num_qubits + num_clbits + 2, 0);
  std::size_t* const qubit_bounds = facts.event_row_bounds.data();
  std::size_t* const clbit_bounds = qubit_bounds + num_qubits + 1;
  for_each_event(
      facts,
      [&](std::size_t q, QubitEvent::Kind, std::size_t) {
        ++qubit_bounds[q + 1];
      },
      [&](std::size_t c, ClbitEvent::Kind, std::size_t) {
        ++clbit_bounds[c + 1];
      });
  for (std::size_t q = 0; q < num_qubits; ++q) {
    qubit_bounds[q + 1] += qubit_bounds[q];
  }
  for (std::size_t c = 0; c < num_clbits; ++c) {
    clbit_bounds[c + 1] += clbit_bounds[c];
  }
  facts.qubit_event_rows.resize(qubit_bounds[num_qubits]);
  facts.clbit_event_rows.resize(clbit_bounds[num_clbits]);
  // Placing an event advances its row's start, so afterwards each row
  // start holds the next row's start; shifting the bounds one row back
  // restores them.
  for_each_event(
      facts,
      [&](std::size_t q, QubitEvent::Kind kind, std::size_t op) {
        facts.qubit_event_rows[qubit_bounds[q]++] = QubitEvent{kind, op};
      },
      [&](std::size_t c, ClbitEvent::Kind kind, std::size_t op) {
        facts.clbit_event_rows[clbit_bounds[c]++] = ClbitEvent{kind, op};
      });
  std::copy_backward(qubit_bounds, qubit_bounds + num_qubits,
                     qubit_bounds + num_qubits + 1);
  qubit_bounds[0] = 0;
  std::copy_backward(clbit_bounds, clbit_bounds + num_clbits,
                     clbit_bounds + num_clbits + 1);
  clbit_bounds[0] = 0;
}

}  // namespace

ProgramFacts ProgramFacts::compute(const Program& program) {
  ProgramFacts out;
  out.program = &program;
  out.circuits.reserve(program.circuits.size());
  for (const CircuitDecl& circ : program.circuits) {
    CircuitFacts facts;
    facts.circuit = &circ;
    facts.analyzable = circ.num_qubits > 0 &&
                       circ.num_qubits <= kMaxRegisterSize &&
                       circ.num_clbits <= kMaxRegisterSize &&
                       !circ.body.empty();
    if (facts.analyzable) {
      std::vector<const IfStmt*> guards;
      // Each body statement flattens to exactly one op.
      facts.ops.reserve(circ.body.size());
      for (const Stmt& stmt : circ.body) {
        flatten_stmt(stmt, guards, facts.ops);
      }
      facts.has_guarded_op =
          std::any_of(facts.ops.begin(), facts.ops.end(),
                      [](const FlatOp& op) { return op.guarded(); });
      facts.operands.reserve(operand_bound(facts));
      for (FlatOp& op : facts.ops) record_operands(op, facts);
      record_events(facts);
      facts.has_measurement = std::any_of(
          facts.ops.begin(), facts.ops.end(), [&](const FlatOp& op) {
            return std::holds_alternative<MeasureStmt>(*op.stmt) ||
                   (std::holds_alternative<MeasureAllStmt>(*op.stmt) &&
                    circ.num_clbits >= circ.num_qubits);
          });
    }
    out.circuits.push_back(std::move(facts));
  }
  return out;
}

}  // namespace qcgen::qasm::lint
