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

void record_events(CircuitFacts& facts) {
  const CircuitDecl& circ = *facts.circuit;
  for (std::size_t i = 0; i < facts.ops.size(); ++i) {
    const FlatOp& op = facts.ops[i];
    // Every guard in the chain reads its classical bit.
    for (const IfStmt* guard : op.guards) {
      if (guard->clbit.index < circ.num_clbits) {
        facts.clbit_events[guard->clbit.index].push_back(
            ClbitEvent{ClbitEvent::Kind::kRead, i});
      }
    }
    std::visit(
        [&](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, GateStmt>) {
            for (const RegRef& ref : s.operands) {
              if (ref.index < circ.num_qubits) {
                facts.qubit_events[ref.index].push_back(
                    QubitEvent{QubitEvent::Kind::kGate, i});
              }
            }
          } else if constexpr (std::is_same_v<T, MeasureStmt>) {
            facts.has_measurement = true;
            if (s.qubit.index < circ.num_qubits) {
              facts.qubit_events[s.qubit.index].push_back(
                  QubitEvent{QubitEvent::Kind::kMeasure, i});
            }
            if (s.clbit.index < circ.num_clbits) {
              facts.clbit_events[s.clbit.index].push_back(
                  ClbitEvent{ClbitEvent::Kind::kWrite, i});
            }
          } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
            if (circ.num_clbits >= circ.num_qubits) {
              facts.has_measurement = true;
              for (std::size_t q = 0; q < circ.num_qubits; ++q) {
                facts.qubit_events[q].push_back(
                    QubitEvent{QubitEvent::Kind::kMeasure, i});
                facts.clbit_events[q].push_back(
                    ClbitEvent{ClbitEvent::Kind::kWrite, i});
              }
            }
          } else if constexpr (std::is_same_v<T, BarrierStmt>) {
            for (std::size_t q = 0; q < circ.num_qubits; ++q) {
              facts.qubit_events[q].push_back(
                  QubitEvent{QubitEvent::Kind::kBarrier, i});
            }
          } else if constexpr (std::is_same_v<T, ResetStmt>) {
            if (s.qubit.index < circ.num_qubits) {
              facts.qubit_events[s.qubit.index].push_back(
                  QubitEvent{QubitEvent::Kind::kReset, i});
            }
          }
        },
        *op.stmt);
  }
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
      for (const Stmt& stmt : circ.body) {
        flatten_stmt(stmt, guards, facts.ops);
      }
      facts.has_guarded_op =
          std::any_of(facts.ops.begin(), facts.ops.end(),
                      [](const FlatOp& op) { return op.guarded(); });
      facts.qubit_events.resize(circ.num_qubits);
      facts.clbit_events.resize(circ.num_clbits);
      record_events(facts);
    }
    out.circuits.push_back(std::move(facts));
  }
  return out;
}

std::vector<std::size_t> qubit_operands(const FlatOp& op,
                                        const CircuitDecl& circ) {
  std::vector<std::size_t> out;
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, GateStmt>) {
          for (const RegRef& ref : s.operands) {
            if (ref.index < circ.num_qubits) out.push_back(ref.index);
          }
        } else if constexpr (std::is_same_v<T, MeasureStmt>) {
          if (s.qubit.index < circ.num_qubits) out.push_back(s.qubit.index);
        } else if constexpr (std::is_same_v<T, ResetStmt>) {
          if (s.qubit.index < circ.num_qubits) out.push_back(s.qubit.index);
        }
      },
      *op.stmt);
  return out;
}

}  // namespace qcgen::qasm::lint
