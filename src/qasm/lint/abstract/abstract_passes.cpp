// Semantic lint passes over the stabilizer-domain abstract
// interpretation results (interpreter.hpp). Where the claim makes
// deleting the statement provably behavior-preserving the diagnostic
// carries a delete fix-it for the repair loop; claims are only reported
// for certainly-reachable ops, so a fix-it never fires on speculation.

#include <algorithm>
#include <optional>
#include <string>

#include "qasm/lint/abstract/interpreter.hpp"
#include "qasm/lint/registry.hpp"

namespace qcgen::qasm::lint {

namespace {

using abstract::AbstractFacts;
using abstract::CircuitAbstractFacts;
using abstract::OpFact;

constexpr std::size_t kMaxPerCircuit = 16;

const GateStmt* as_gate(const FlatOp& op) {
  return std::get_if<GateStmt>(op.stmt);
}

std::string qubit_ref(const CircuitDecl& circ, std::size_t q) {
  return concat({circ.qreg_name, "[", std::to_string(q), "]"});
}

/// The per-circuit abstract facts, or nullptr when the interpreter did
/// not run (pass disabled / circuit over the caps / unanalyzable).
const CircuitAbstractFacts* computed_facts(const PassContext& ctx,
                                           std::size_t circuit_index) {
  if (ctx.abstract == nullptr) return nullptr;
  if (circuit_index >= ctx.abstract->circuits.size()) return nullptr;
  const CircuitAbstractFacts& acf = ctx.abstract->circuits[circuit_index];
  return acf.computed ? &acf : nullptr;
}

/// Delete fix-it for an unguarded single-line statement.
std::optional<FixIt> delete_stmt_fixit(const FlatOp& op,
                                       const std::string& guard) {
  if (op.guarded() || op.line <= 0) return std::nullopt;
  return FixIt{op.line, op.line, "", guard};
}

/// abstract.deterministic-measurement: the interpreter proved the
/// measured outcome constant, so the recorded bit carries no
/// information — usually a missing gate (e.g. an oracle applied before
/// any superposition was created).
class DeterministicMeasurementPass final : public LintPass {
 public:
  std::string_view id() const override {
    return "abstract.deterministic-measurement";
  }
  std::string_view description() const override {
    return "measurements whose outcome is provably constant";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitAbstractFacts* acf = computed_facts(ctx, ci);
      if (acf == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t i = 0;
           i < facts.ops.size() && reported < kMaxPerCircuit; ++i) {
        const OpFact& fact = acf->ops[i];
        if (fact.reach != OpFact::Reach::kRun || !fact.has_outcome) continue;
        const FlatOp& op = facts.ops[i];
        if (const auto* m = std::get_if<MeasureStmt>(op.stmt)) {
          sink.report(Severity::kWarning, DiagCode::kDeterministicMeasurement,
                      concat({"measurement of ",
                              qubit_ref(circ, m->qubit.index),
                              " is provably always ",
                              fact.outcome == sim::SignBit::kOne ? "1" : "0",
                              "; the recorded bit carries no information"}),
                      op.line);
          ++reported;
        } else if (std::holds_alternative<MeasureAllStmt>(*op.stmt)) {
          sink.report(Severity::kWarning, DiagCode::kDeterministicMeasurement,
                      concat({"measure_all outcome is provably the constant "
                              "bitstring \"",
                              fact.constant_bits, "\" (", circ.creg_name,
                              "[0] first); the circuit computes nothing "
                              "random"}),
                      op.line);
          ++reported;
        }
      }
    }
  }
};

/// abstract.unreachable-conditional: a guard compares a classical bit
/// against a value the abstract state proves it can never hold, so the
/// guarded statement is dead. The fix-it deletes the whole if-chain
/// (each chain guards exactly one statement in canonical layout).
class UnreachableConditionalPass final : public LintPass {
 public:
  std::string_view id() const override {
    return "abstract.unreachable-conditional";
  }
  std::string_view description() const override {
    return "conditions that can never be true";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitAbstractFacts* acf = computed_facts(ctx, ci);
      if (acf == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t i = 0;
           i < facts.ops.size() && reported < kMaxPerCircuit; ++i) {
        const OpFact& fact = acf->ops[i];
        if (fact.reach != OpFact::Reach::kUnreachable) continue;
        const FlatOp& op = facts.ops[i];
        const IfStmt& guard = *fact.false_guard;
        std::optional<FixIt> fix;
        const int chain_begin = op.guards.front()->line;
        if (chain_begin > 0 && op.line >= chain_begin) {
          fix = FixIt{chain_begin, op.line, "", "if"};
        }
        sink.report(
            Severity::kWarning, DiagCode::kUnreachableConditional,
            "condition '" + circ.creg_name + "[" +
                std::to_string(guard.clbit.index) + "] == " +
                (guard.value ? "1" : "0") + "' is provably never true (the "
                "bit is always " + (guard.value ? "0" : "1") +
                " here); the guarded statement never executes",
            guard.line, std::move(fix));
        ++reported;
      }
    }
  }
};

/// abstract.redundant-reset: reset of a qubit provably already in |0>.
class RedundantResetPass final : public LintPass {
 public:
  std::string_view id() const override { return "abstract.redundant-reset"; }
  std::string_view description() const override {
    return "resets of qubits provably already in |0>";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitAbstractFacts* acf = computed_facts(ctx, ci);
      if (acf == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t i = 0;
           i < facts.ops.size() && reported < kMaxPerCircuit; ++i) {
        if (!acf->ops[i].redundant_reset) continue;
        const FlatOp& op = facts.ops[i];
        const auto* reset = std::get_if<ResetStmt>(op.stmt);
        if (reset == nullptr) continue;
        sink.report(Severity::kWarning, DiagCode::kRedundantReset,
                    "reset of " + qubit_ref(circ, reset->qubit.index) +
                        " is redundant: the qubit is provably already in |0>",
                    op.line, delete_stmt_fixit(op, "reset"));
        ++reported;
      }
    }
  }
};

/// abstract.trivial-gate: a controlled gate whose control is provably
/// |0> never fires (for cz/cp, either operand in |0> suffices).
class TrivialGatePass final : public LintPass {
 public:
  std::string_view id() const override { return "abstract.trivial-gate"; }
  std::string_view description() const override {
    return "controlled gates whose control is provably |0>";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitAbstractFacts* acf = computed_facts(ctx, ci);
      if (acf == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t i = 0;
           i < facts.ops.size() && reported < kMaxPerCircuit; ++i) {
        const OpFact& fact = acf->ops[i];
        if (!fact.trivial_control) continue;
        const FlatOp& op = facts.ops[i];
        const GateStmt* gate = as_gate(op);
        if (gate == nullptr) continue;
        sink.report(Severity::kWarning, DiagCode::kTrivialControlledGate,
                    concat({"gate '", gate->name,
                            "' never fires: control qubit ",
                            qubit_ref(circ, fact.control_qubit),
                            " is provably in |0>"}),
                    op.line, delete_stmt_fixit(op, gate->name));
        ++reported;
      }
    }
  }
};

/// abstract.topology-conformance: with a target device committed
/// (LintConfig::topology), two-qubit gates must act on coupled physical
/// qubits under the identity layout q[i] -> physical i; anything else
/// costs SWAP insertions at transpile time. Provably unreachable gates
/// are exempt (they will never route).
class TopologyConformancePass final : public LintPass {
 public:
  std::string_view id() const override {
    return "abstract.topology-conformance";
  }
  std::string_view description() const override {
    return "two-qubit gates on non-adjacent physical qubits";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    if (!ctx.config.topology.has_value()) return;
    const CouplingMap& topo = *ctx.config.topology;
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      if (!facts.analyzable) continue;
      const CircuitDecl& circ = *facts.circuit;
      const CircuitAbstractFacts* acf = computed_facts(ctx, ci);
      std::size_t reported = 0;
      for (std::size_t i = 0;
           i < facts.ops.size() && reported < kMaxPerCircuit; ++i) {
        if (acf != nullptr &&
            acf->ops[i].reach == OpFact::Reach::kUnreachable) {
          continue;
        }
        const FlatOp& op = facts.ops[i];
        const GateStmt* gate = as_gate(op);
        if (gate == nullptr) continue;
        const std::optional<sim::GateKind> kind = op.gate;
        if (!kind || sim::gate_info(*kind).num_qubits != 2) continue;
        const auto qs = qubit_operands(op, facts);
        if (qs.size() != 2 || qs[0] == qs[1]) continue;
        if (qs[0] >= topo.num_qubits || qs[1] >= topo.num_qubits) {
          sink.report(Severity::kWarning, DiagCode::kNonAdjacentQubits,
                      "gate '" + gate->name + "' uses " +
                          qubit_ref(circ, std::max(qs[0], qs[1])) +
                          ", beyond the " + std::to_string(topo.num_qubits) +
                          " qubits of device '" + topo.name + "'",
                      op.line);
          ++reported;
          continue;
        }
        if (topo.adjacent(qs[0], qs[1])) continue;
        const std::size_t dist = coupling_distance(topo, qs[0], qs[1]);
        std::string note;
        if (dist == 0) {
          note = "; no coupling path exists at all";
        } else {
          const std::size_t swaps = dist - 1;
          note = "; routing would add ~" + std::to_string(swaps) +
                 " swap(s) (~" + std::to_string(3 * swaps) + " cx)";
        }
        sink.report(Severity::kWarning, DiagCode::kNonAdjacentQubits,
                    "gate '" + gate->name + "' couples " +
                        qubit_ref(circ, qs[0]) + " and " +
                        qubit_ref(circ, qs[1]) +
                        ", which are not adjacent on device '" + topo.name +
                        "'" + note,
                    op.line);
        ++reported;
      }
    }
  }
};

}  // namespace

void register_abstract_passes(PassRegistry& registry) {
  registry.add(std::make_unique<DeterministicMeasurementPass>())
      .add(std::make_unique<UnreachableConditionalPass>())
      .add(std::make_unique<RedundantResetPass>())
      .add(std::make_unique<TrivialGatePass>())
      .add(std::make_unique<TopologyConformancePass>());
}

}  // namespace qcgen::qasm::lint
