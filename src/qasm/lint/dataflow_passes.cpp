// Dataflow lints over the per-qubit / per-clbit event timelines in
// ProgramFacts. These catch the "parses fine, measures garbage" class
// of model output: operations after measurement, redundant measures,
// conditions racing their writes, unreachable work, and self-cancelling
// gate pairs. Where removal is provably behavior-preserving the
// diagnostic carries a delete fix-it for the repair loop.

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "qasm/lint/registry.hpp"

namespace qcgen::qasm::lint {

namespace {

const GateStmt* as_gate(const FlatOp& op) {
  return std::get_if<GateStmt>(op.stmt);
}

const MeasureStmt* as_measure(const FlatOp& op) {
  return std::get_if<MeasureStmt>(op.stmt);
}

/// dataflow.clbit-liveness: conditions must read a classical bit after
/// something wrote it. Reads-before-any-write split into two codes:
/// the bit is written *later* (statement-order bug, kConditionOnStaleClbit)
/// vs. never written at all (kConditionOnUnwrittenClbit).
class ClbitLivenessPass final : public LintPass {
 public:
  std::string_view id() const override { return "dataflow.clbit-liveness"; }
  std::string_view description() const override {
    return "conditions reading unwritten or not-yet-written classical bits";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      const CircuitDecl& circ = *facts.circuit;
      // Conditions are rare: a circuit without one has nothing to check.
      if (!facts.has_guarded_op) continue;
      // Per clbit: the line of its first write, if any (guarded writes
      // count: a conditional measurement still writes), and whether the
      // walk below has passed a write yet.
      struct ClbitState {
        int first_write_line = 0;
        bool ever_written = false;
        bool written = false;
      };
      std::vector<ClbitState> clbits(circ.num_clbits);
      for (std::size_t c = 0; c < circ.num_clbits; ++c) {
        for (const ClbitEvent& e : facts.clbit_events(c)) {
          if (e.kind == ClbitEvent::Kind::kWrite) {
            clbits[c].ever_written = true;
            clbits[c].first_write_line = facts.ops[e.op].line;
            break;
          }
        }
      }
      for (const FlatOp& op : facts.ops) {
        for (const IfStmt* guard : op.guards) {
          const RegRef& ref = guard->clbit;
          if (ref.index >= circ.num_clbits || clbits[ref.index].written) {
            continue;
          }
          if (clbits[ref.index].ever_written) {
            sink.report(Severity::kWarning, DiagCode::kConditionOnStaleClbit,
                        "condition reads classical bit " +
                            std::to_string(ref.index) +
                            " before the measurement at line " +
                            std::to_string(
                                clbits[ref.index].first_write_line) +
                            " writes it; move the condition after the "
                            "measurement",
                        ref.line);
          } else {
            sink.report(Severity::kWarning,
                        DiagCode::kConditionOnUnwrittenClbit,
                        "condition reads classical bit " +
                            std::to_string(ref.index) +
                            " before any measurement writes it",
                        ref.line);
          }
        }
        std::visit(
            [&](const auto& s) {
              using T = std::decay_t<decltype(s)>;
              if constexpr (std::is_same_v<T, MeasureStmt>) {
                if (s.clbit.index < circ.num_clbits) {
                  clbits[s.clbit.index].written = true;
                }
              } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
                if (circ.num_clbits >= circ.num_qubits) {
                  for (ClbitState& clbit : clbits) clbit.written = true;
                }
              }
            },
            *op.stmt);
      }
    }
  }
};

/// dataflow.gate-after-measure: an unconditional gate applied to a
/// qubit after an unconditional measurement (with no reset between)
/// does not affect the recorded result — almost always a misordering.
/// Guarded gates are exempt: measure-then-conditionally-correct is the
/// teleportation / error-correction idiom.
class GateAfterMeasurePass final : public LintPass {
 public:
  std::string_view id() const override { return "dataflow.gate-after-measure"; }
  std::string_view description() const override {
    return "unconditional gates on already-measured qubits";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      for (std::size_t q = 0; q < facts.circuit->num_qubits; ++q) {
        bool measured = false;
        for (const QubitEvent& e : facts.qubit_events(q)) {
          const FlatOp& op = facts.ops[e.op];
          switch (e.kind) {
            case QubitEvent::Kind::kMeasure:
              if (!op.guarded()) measured = true;
              break;
            case QubitEvent::Kind::kReset:
              measured = false;
              break;
            case QubitEvent::Kind::kGate: {
              if (!measured || op.guarded()) break;
              const GateStmt* gate = as_gate(op);
              if (!gate) break;
              sink.report(Severity::kWarning, DiagCode::kGateAfterMeasurement,
                          "gate '" + gate->name + "' acts on qubit " +
                              std::to_string(q) +
                              " after it was measured; the recorded result "
                              "cannot reflect it (add a reset or move the "
                              "measurement)",
                          op.line);
              measured = false;  // first offender per measurement
              break;
            }
            case QubitEvent::Kind::kBarrier:
              break;
          }
        }
      }
    }
  }
};

/// dataflow.double-measure: measuring a qubit twice with nothing in
/// between yields an identical second result. When both measurements
/// target the same classical bit the second is a pure no-op and gets a
/// delete fix-it.
class DoubleMeasurePass final : public LintPass {
 public:
  std::string_view id() const override { return "dataflow.double-measure"; }
  std::string_view description() const override {
    return "repeated measurement with no intervening gate or reset";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      for (std::size_t q = 0; q < facts.circuit->num_qubits; ++q) {
        // Op index of the pending unconditional measurement, if any.
        std::optional<std::size_t> pending;
        for (const QubitEvent& e : facts.qubit_events(q)) {
          const FlatOp& op = facts.ops[e.op];
          switch (e.kind) {
            case QubitEvent::Kind::kGate:
            case QubitEvent::Kind::kReset:
              pending.reset();
              break;
            case QubitEvent::Kind::kBarrier:
              break;
            case QubitEvent::Kind::kMeasure: {
              if (!pending.has_value()) {
                if (!op.guarded()) pending = e.op;
                break;
              }
              if (op.guarded()) break;  // conditional re-measure: deliberate
              sink.report(Severity::kWarning, DiagCode::kDoubleMeasurement,
                          "qubit " + std::to_string(q) +
                              " is measured again with no gate or reset in "
                              "between; the result is identical to the first "
                              "measurement",
                          op.line, delete_fixit(facts, *pending, e.op));
              pending = e.op;
              break;
            }
          }
        }
      }
    }
  }

 private:
  /// Deleting the second measure is only behavior-preserving when it
  /// writes the same classical bit as the first one.
  static std::optional<FixIt> delete_fixit(const CircuitFacts& facts,
                                           std::size_t first,
                                           std::size_t second) {
    const MeasureStmt* a = as_measure(facts.ops[first]);
    const MeasureStmt* b = as_measure(facts.ops[second]);
    if (!a || !b || a->clbit.index != b->clbit.index) return std::nullopt;
    const int line = facts.ops[second].line;
    if (line <= 0 || line == facts.ops[first].line) return std::nullopt;
    return FixIt{line, line, "", "measure"};
  }
};

/// dataflow.dead-code: backward liveness over qubits. An operation whose
/// operands can never reach a measurement cannot influence any recorded
/// outcome; deleting it is behavior-preserving, so the diagnostic
/// carries a delete fix-it. Circuits that never measure are skipped
/// (core.measurement already covers them and everything would be dead).
class DeadCodePass final : public LintPass {
 public:
  std::string_view id() const override { return "dataflow.dead-code"; }
  std::string_view description() const override {
    return "operations that cannot affect any measured outcome";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    constexpr std::size_t kMaxPerCircuit = 16;
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable || !facts.has_measurement) continue;
      const CircuitDecl& circ = *facts.circuit;
      std::vector<char> live(circ.num_qubits, 0);  // per qubit
      std::vector<std::size_t> dead;  // op indices, discovered backwards
      for (std::size_t i = facts.ops.size(); i-- > 0;) {
        const FlatOp& op = facts.ops[i];
        std::visit(
            [&](const auto& s) {
              using T = std::decay_t<decltype(s)>;
              if constexpr (std::is_same_v<T, MeasureStmt>) {
                if (s.qubit.index < circ.num_qubits) live[s.qubit.index] = 1;
              } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
                if (circ.num_clbits >= circ.num_qubits) {
                  std::fill(live.begin(), live.end(), 1);
                }
              } else if constexpr (std::is_same_v<T, ResetStmt>) {
                // A reset severs the qubit's past from its future; the
                // reset itself is never flagged (it may re-arm a dead
                // qubit deliberately). Guarded resets may not run, so
                // they cannot kill liveness.
                if (!op.guarded() && s.qubit.index < circ.num_qubits) {
                  live[s.qubit.index] = 0;
                }
              } else if constexpr (std::is_same_v<T, GateStmt>) {
                const auto qs = qubit_operands(op, facts);
                if (qs.empty()) return;  // all operands out of range
                const bool any_live =
                    std::any_of(qs.begin(), qs.end(),
                                [&](std::size_t q) { return live[q] != 0; });
                if (any_live) {
                  for (std::size_t q : qs) live[q] = 1;
                } else {
                  dead.push_back(i);
                }
              }
            },
            *op.stmt);
      }
      std::reverse(dead.begin(), dead.end());  // report in program order
      const std::size_t shown = std::min(dead.size(), kMaxPerCircuit);
      for (std::size_t k = 0; k < shown; ++k) {
        const FlatOp& op = facts.ops[dead[k]];
        const GateStmt& gate = *as_gate(op);
        std::optional<FixIt> fix;
        if (op.line > 0) {
          fix = FixIt{op.line, op.line, "", gate.name};
        }
        sink.report(Severity::kWarning, DiagCode::kDeadOperation,
                    concat({"gate '", gate.name,
                            "' cannot affect any measured outcome (no path "
                            "from its qubits to a measurement)"}),
                    op.line, std::move(fix));
      }
      if (dead.size() > shown) {
        sink.report(Severity::kWarning, DiagCode::kDeadOperation,
                    std::to_string(dead.size() - shown) +
                        " further operation(s) in circuit '" + circ.name +
                        "' cannot affect any measured outcome",
                    circ.line);
      }
    }
  }
};

/// dataflow.redundant-pair: two adjacent applications of a self-inverse
/// gate to the same operands cancel to identity. Adjacency means the
/// second op is the very next event on *every* operand's timeline, so a
/// barrier (or any interleaved op on any operand) breaks the pair.
class RedundantPairPass final : public LintPass {
 public:
  std::string_view id() const override { return "dataflow.redundant-pair"; }
  std::string_view description() const override {
    return "adjacent self-inverse gate pairs that cancel to identity";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      // Per op: the gate that follows its first gate event, and on how
      // many timelines that gate follows it. The count reaches the op's
      // operand count only when one gate comes next on every timeline.
      struct Successor {
        std::size_t op = 0;
        std::size_t count = 0;
      };
      std::vector<Successor> next(facts.ops.size());
      for (std::size_t q = 0; q < facts.circuit->num_qubits; ++q) {
        const auto chain = facts.qubit_events(q);
        for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
          if (chain[k].kind != QubitEvent::Kind::kGate ||
              chain[k + 1].kind != QubitEvent::Kind::kGate) {
            continue;
          }
          Successor& s = next[chain[k].op];
          if (s.count == 0) s.op = chain[k + 1].op;
          if (s.op == chain[k + 1].op) ++s.count;
        }
      }
      for (std::size_t i = 0; i < facts.ops.size(); ++i) {
        const auto [j, count] = next[i];
        if (count == 0) continue;
        const FlatOp& first = facts.ops[i];
        const FlatOp& second = facts.ops[j];
        if (first.guarded() || second.guarded()) continue;
        const GateStmt* a = as_gate(first);
        const GateStmt* b = as_gate(second);
        if (!a || !b) continue;
        const std::optional<sim::GateKind> ka = first.gate;
        const std::optional<sim::GateKind> kb = second.gate;
        if (!ka || !kb || *ka != *kb || !self_inverse(*ka)) continue;
        const auto qa = qubit_operands(first, facts);
        const auto qb = qubit_operands(second, facts);
        // Every operand of both gates must witness the adjacency, and
        // the operand multisets must agree up to gate symmetry.
        if (qa.size() != count || qb.size() != count) continue;
        if (!operands_match(*ka, qa, qb)) continue;
        std::optional<FixIt> fix;
        if (first.line > 0 && second.line == first.line + 1) {
          fix = FixIt{first.line, second.line, "", a->name};
        }
        sink.report(Severity::kWarning, DiagCode::kRedundantGatePair,
                    "adjacent '" + a->name + "' gates on the same operands "
                    "cancel to identity; remove both (first at line " +
                        std::to_string(first.line) + ")",
                    second.line, std::move(fix));
      }
    }
  }

 private:
  static bool self_inverse(sim::GateKind kind) {
    switch (kind) {
      case sim::GateKind::kH:
      case sim::GateKind::kX:
      case sim::GateKind::kY:
      case sim::GateKind::kZ:
      case sim::GateKind::kCX:
      case sim::GateKind::kCZ:
      case sim::GateKind::kSwap:
      case sim::GateKind::kCCX:
      case sim::GateKind::kCSwap:
        return true;
      default:
        return false;
    }
  }

  /// Operand equality up to the gate's qubit symmetries: cz/swap are
  /// fully symmetric, ccx is symmetric in its controls, cswap in its
  /// targets; everything else must match positionally.
  static bool operands_match(sim::GateKind kind,
                             std::span<const std::size_t> a,
                             std::span<const std::size_t> b) {
    if (a.size() != b.size()) return false;
    if (std::equal(a.begin(), a.end(), b.begin())) return true;
    const auto same_pair = [](std::size_t a0, std::size_t a1, std::size_t b0,
                              std::size_t b1) {
      return (a0 == b0 && a1 == b1) || (a0 == b1 && a1 == b0);
    };
    switch (kind) {
      case sim::GateKind::kCZ:
      case sim::GateKind::kSwap:
        return a.size() == 2 && same_pair(a[0], a[1], b[0], b[1]);
      case sim::GateKind::kCCX:
        return a.size() == 3 && a[2] == b[2] &&
               same_pair(a[0], a[1], b[0], b[1]);
      case sim::GateKind::kCSwap:
        return a.size() == 3 && a[0] == b[0] &&
               same_pair(a[1], a[2], b[1], b[2]);
      default:
        return false;
    }
  }
};

}  // namespace

void register_dataflow_passes(PassRegistry& registry) {
  registry.add(std::make_unique<ClbitLivenessPass>())
      .add(std::make_unique<GateAfterMeasurePass>())
      .add(std::make_unique<DoubleMeasurePass>())
      .add(std::make_unique<DeadCodePass>())
      .add(std::make_unique<RedundantPairPass>());
}

}  // namespace qcgen::qasm::lint
