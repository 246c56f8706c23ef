#include "qasm/lint/abstract/interpreter.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <variant>

#include "qasm/lint/abstract/domain.hpp"

namespace qcgen::qasm::lint::abstract {

namespace {

using sim::GateKind;
using sim::SignBit;

/// Operand positions that make the gate the identity when provably |0>.
/// Diagonal controlled gates (cz, cp) are symmetric: either operand
/// being |0> suffices.
std::vector<std::size_t> control_positions(GateKind kind) {
  switch (kind) {
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCSwap:
      return {0};
    case GateKind::kCZ:
    case GateKind::kCPhase:
    case GateKind::kCCX:
      return {0, 1};
    default:
      return {};
  }
}

class Interpreter {
 public:
  explicit Interpreter(const CircuitFacts& facts)
      : facts_(facts),
        circ_(*facts.circuit),
        state_(circ_.num_qubits, circ_.num_clbits) {}

  void run(CircuitAbstractFacts& out) {
    for (std::size_t i = 0; i < facts_.ops.size(); ++i) {
      const FlatOp& op = facts_.ops[i];
      OpFact& fact = out.ops[i];
      fact.reach = evaluate_guards(op, fact);
      if (fact.reach == OpFact::Reach::kUnreachable) continue;
      certain_ = fact.reach == OpFact::Reach::kRun;
      std::visit(
          [&](const auto& s) {
            if constexpr (std::is_same_v<std::decay_t<decltype(s)>, GateStmt>) {
              transfer(s, op.gate, fact);
            } else {
              transfer(s, fact);
            }
          },
          *op.stmt);
    }
    out.computed = true;
  }

 private:
  OpFact::Reach evaluate_guards(const FlatOp& op, OpFact& fact) const {
    OpFact::Reach reach = OpFact::Reach::kRun;
    for (const IfStmt* guard : op.guards) {
      SignBit v = SignBit::kUnknown;
      if (guard->clbit.index < circ_.num_clbits) {
        v = state_.clbit(guard->clbit.index);
      }
      if (!sign_known(v)) {
        reach = OpFact::Reach::kMaybe;
        continue;
      }
      if ((v == SignBit::kOne) != guard->value) {
        fact.false_guard = guard;
        return OpFact::Reach::kUnreachable;
      }
    }
    return reach;
  }

  void transfer(const BarrierStmt&, OpFact&) {}

  void transfer(const std::shared_ptr<IfStmt>&, OpFact&) {}  // flattened away

  void transfer(const MeasureStmt& s, OpFact& fact) {
    const bool clbit_ok = s.clbit.index < circ_.num_clbits;
    if (s.qubit.index >= circ_.num_qubits) {
      if (clbit_ok) state_.set_clbit(s.clbit.index, SignBit::kUnknown);
      return;
    }
    if (!certain_) {
      state_.widen(s.qubit.index);
      if (clbit_ok) state_.set_clbit(s.clbit.index, SignBit::kUnknown);
      return;
    }
    const SignBit outcome = state_.measure(s.qubit.index);
    if (clbit_ok) state_.set_clbit(s.clbit.index, outcome);
    if (sign_known(outcome)) {
      fact.has_outcome = true;
      fact.outcome = outcome;
    }
  }

  void transfer(const MeasureAllStmt&, OpFact& fact) {
    if (!certain_ || circ_.num_clbits < circ_.num_qubits) {
      // Maybe-executed, or the register mismatch the structure checks
      // flag separately: over-approximate wholesale.
      for (std::size_t q = 0; q < circ_.num_qubits; ++q) state_.widen(q);
      for (std::size_t c = 0; c < circ_.num_clbits; ++c) {
        state_.set_clbit(c, SignBit::kUnknown);
      }
      return;
    }
    std::string bits;
    bool all_known = true;
    for (std::size_t q = 0; q < circ_.num_qubits; ++q) {
      const SignBit outcome = state_.measure(q);
      state_.set_clbit(q, outcome);
      if (sign_known(outcome)) {
        bits += outcome == SignBit::kOne ? '1' : '0';
      } else {
        all_known = false;
        bits += '?';
      }
    }
    if (all_known) {
      fact.has_outcome = true;
      fact.constant_bits = std::move(bits);
    }
  }

  void transfer(const ResetStmt& s, OpFact& fact) {
    if (s.qubit.index >= circ_.num_qubits) return;
    if (!certain_) {
      state_.widen(s.qubit.index);
      return;
    }
    if (state_.provably_zero(s.qubit.index)) fact.redundant_reset = true;
    state_.reset(s.qubit.index);
  }

  void transfer(const GateStmt& s, std::optional<GateKind> kind,
                OpFact& fact) {
    std::vector<std::size_t> qs;
    qs.reserve(s.operands.size());
    for (const RegRef& ref : s.operands) qs.push_back(ref.index);
    if (!kind || !valid_operands(*kind, qs)) {
      // Malformed gate (core passes report it); assume the worst about
      // whatever it names in range.
      for (std::size_t q : qs) {
        if (q < circ_.num_qubits) state_.widen(q);
      }
      return;
    }
    for (std::size_t pos : control_positions(*kind)) {
      if (state_.provably_zero(qs[pos])) {
        // Identity on the true state whether or not a maybe-guard fires;
        // claim it only when certainly reachable.
        if (certain_) {
          fact.trivial_control = true;
          fact.control_qubit = qs[pos];
        }
        return;
      }
    }
    if (!certain_) {
      for (std::size_t q : qs) state_.widen(q);
      return;
    }
    const bool all_tracked = std::none_of(
        qs.begin(), qs.end(), [&](std::size_t q) { return state_.is_top(q); });
    if (all_tracked && AbstractState::clifford_appliable(*kind)) {
      state_.apply_clifford(*kind, qs);
      return;
    }
    if (AbstractState::diagonal(*kind)) {
      // Diagonal gates fix every definite Z-eigenstate operand (global
      // phase there); only the genuinely quantum operands widen.
      for (std::size_t q : qs) {
        if (!state_.z_value(q).has_value()) state_.widen(q);
      }
      return;
    }
    for (std::size_t q : qs) state_.widen(q);
  }

  bool valid_operands(GateKind kind,
                      const std::vector<std::size_t>& qs) const {
    const int arity = sim::gate_info(kind).num_qubits;
    if (arity < 0 || qs.size() != static_cast<std::size_t>(arity)) {
      return false;
    }
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (qs[i] >= circ_.num_qubits) return false;
      for (std::size_t j = i + 1; j < qs.size(); ++j) {
        if (qs[i] == qs[j]) return false;
      }
    }
    return true;
  }

  const CircuitFacts& facts_;
  const CircuitDecl& circ_;
  AbstractState state_;
  bool certain_ = true;
};

}  // namespace

AbstractFacts AbstractFacts::compute(const ProgramFacts& facts) {
  AbstractFacts out;
  out.circuits.resize(facts.circuits.size());
  for (std::size_t i = 0; i < facts.circuits.size(); ++i) {
    const CircuitFacts& cf = facts.circuits[i];
    CircuitAbstractFacts& acf = out.circuits[i];
    acf.ops.resize(cf.ops.size());
    if (!cf.analyzable) continue;
    const CircuitDecl& circ = *cf.circuit;
    if (circ.num_qubits == 0 || circ.num_qubits > kMaxAbstractQubits ||
        circ.num_clbits > kMaxAbstractClbits) {
      continue;
    }
    Interpreter(cf).run(acf);
  }
  return out;
}

}  // namespace qcgen::qasm::lint::abstract
