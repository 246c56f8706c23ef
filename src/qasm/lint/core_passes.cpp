// The legacy monolithic analyzer, re-expressed as lint passes. Behavior
// matches the pre-pass analyzer check-for-check (import hygiene, gate
// existence/arity, register bounds, structural well-formedness), with
// fix-its added where the edit is mechanical: import replacement or
// removal, missing-import insertion, alias canonicalization.

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qasm/lint/registry.hpp"
#include "qasm/printer.hpp"

namespace qcgen::qasm::lint {

namespace {

class ImportsPass final : public LintPass {
 public:
  std::string_view id() const override { return "core.imports"; }
  std::string_view description() const override {
    return "missing/unknown/deprecated module imports";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    bool has_qiskit = false;
    for (const Import& imp : ctx.program.imports) {
      if (imp.path == ctx.registry.required_import() ||
          imp.path.rfind(std::string(ctx.registry.required_import()) + ".",
                         0) == 0) {
        has_qiskit = true;
      }
      switch (ctx.registry.import_status(imp.path)) {
        case ImportStatus::kCurrent:
          break;
        case ImportStatus::kDeprecated: {
          std::string msg = "import '" + imp.path +
                            "' is deprecated/removed in the current library";
          std::optional<FixIt> fix;
          if (auto repl = ctx.registry.import_replacement(imp.path)) {
            msg += "; use '" + *repl + "'";
            if (imp.line > 0) {
              fix = FixIt{imp.line, imp.line, "import " + *repl + ";",
                          imp.path};
            }
          }
          sink.report(Severity::kError, DiagCode::kDeprecatedImport,
                      std::move(msg), imp.line, std::move(fix));
          break;
        }
        case ImportStatus::kUnknown: {
          std::optional<FixIt> fix;
          if (imp.line > 0) {
            fix = FixIt{imp.line, imp.line, "", imp.path};
          }
          sink.report(Severity::kError, DiagCode::kUnknownImport,
                      "unknown module '" + imp.path + "'", imp.line,
                      std::move(fix));
          break;
        }
      }
    }
    if (!has_qiskit) {
      // Insertion before line 1: prepend the canonical import.
      sink.report(Severity::kError, DiagCode::kMissingQiskitImport,
                  "program does not import 'qiskit'", 0,
                  FixIt{1, 0, "import qiskit;", ""});
    }
  }
};

class StructurePass final : public LintPass {
 public:
  std::string_view id() const override { return "core.structure"; }
  std::string_view description() const override {
    return "circuit declarations: presence, naming, register plausibility";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    if (ctx.program.circuits.empty()) {
      sink.report(Severity::kError, DiagCode::kNoCircuit,
                  "program declares no circuit", 0);
    }
    // Names view the circuits' own strings, so indexing them copies none.
    std::set<std::string_view> names;
    for (const CircuitDecl& circ : ctx.program.circuits) {
      if (!names.insert(circ.name).second) {
        sink.report(Severity::kError, DiagCode::kDuplicateCircuitName,
                    "duplicate circuit name '" + circ.name + "'", circ.line);
      }
      if (circ.num_qubits == 0) {
        sink.report(Severity::kError, DiagCode::kEmptyCircuit,
                    "circuit '" + circ.name + "' declares zero qubits",
                    circ.line);
        continue;
      }
      if (circ.num_qubits > kMaxRegisterSize ||
          circ.num_clbits > kMaxRegisterSize) {
        sink.report(Severity::kError, DiagCode::kEmptyCircuit,
                    "circuit '" + circ.name +
                        "' declares an implausibly large register (limit " +
                        std::to_string(kMaxRegisterSize) + ")",
                    circ.line);
        continue;
      }
      if (circ.body.empty()) {
        sink.report(Severity::kError, DiagCode::kEmptyCircuit,
                    "circuit '" + circ.name + "' has an empty body",
                    circ.line);
      }
    }
  }
};

class GatesPass final : public LintPass {
 public:
  std::string_view id() const override { return "core.gates"; }
  std::string_view description() const override {
    return "gate existence, arity, parameters and register bounds";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    std::vector<bool> seen;  // qubits a long operand list has named
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      for (const FlatOp& op : facts.ops) {
        check_op(ctx, *facts.circuit, op, seen, sink);
      }
    }
  }

 private:
  void check_qubit_ref(const CircuitDecl& circ, const RegRef& ref,
                       DiagnosticSink& sink) const {
    if (ref.index >= circ.num_qubits) {
      sink.report(Severity::kError, DiagCode::kQubitOutOfRange,
                  "qubit index " + std::to_string(ref.index) +
                      " out of range (circuit has " +
                      std::to_string(circ.num_qubits) + " qubits)",
                  ref.line);
    }
  }

  void check_clbit_ref(const CircuitDecl& circ, const RegRef& ref,
                       DiagnosticSink& sink) const {
    if (ref.index >= circ.num_clbits) {
      sink.report(Severity::kError, DiagCode::kClbitOutOfRange,
                  "classical bit index " + std::to_string(ref.index) +
                      " out of range (circuit has " +
                      std::to_string(circ.num_clbits) + " classical bits)",
                  ref.line);
    }
  }

  void check_op(const PassContext& ctx, const CircuitDecl& circ,
                const FlatOp& op, std::vector<bool>& seen,
                DiagnosticSink& sink) const {
    for (const IfStmt* guard : op.guards) {
      check_clbit_ref(circ, guard->clbit, sink);
    }
    std::visit(
        [&](const auto& s) {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, GateStmt>) {
            check_gate(ctx, circ, s, op, seen, sink);
          } else if constexpr (std::is_same_v<T, MeasureStmt>) {
            check_qubit_ref(circ, s.qubit, sink);
            check_clbit_ref(circ, s.clbit, sink);
          } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
            if (circ.num_clbits < circ.num_qubits) {
              sink.report(Severity::kError, DiagCode::kClbitOutOfRange,
                          "measure_all needs at least as many classical bits "
                          "as qubits",
                          s.line);
            }
          } else if constexpr (std::is_same_v<T, ResetStmt>) {
            check_qubit_ref(circ, s.qubit, sink);
          }
        },
        *op.stmt);
  }

  void check_gate(const PassContext& ctx, const CircuitDecl& circ,
                  const GateStmt& gate, const FlatOp& op,
                  std::vector<bool>& seen, DiagnosticSink& sink) const {
    if (!op.gate) {
      sink.report(Severity::kError, DiagCode::kUnknownGate,
                  "unknown gate '" + gate.name + "'", gate.line);
      // Still bounds-check operands so one bad mnemonic doesn't hide
      // index errors from the repair loop.
      for (const RegRef& ref : gate.operands) {
        check_qubit_ref(circ, ref, sink);
      }
      return;
    }
    const sim::GateKind kind = *op.gate;
    if (ctx.registry.is_deprecated_gate_alias(gate.name)) {
      const std::string canonical(sim::gate_name(kind));
      std::optional<FixIt> fix;
      if (gate.line > 0) {
        GateStmt fixed = gate;
        fixed.name = canonical;
        fix = FixIt{gate.line, gate.line,
                    print_stmt(Stmt{std::move(fixed)}, op.indent()),
                    gate.name};
      }
      sink.report(Severity::kWarning, DiagCode::kDeprecatedGateAlias,
                  "gate alias '" + gate.name + "' is deprecated; use '" +
                      canonical + "'",
                  gate.line, std::move(fix));
    }
    const sim::GateInfo& gi = sim::gate_info(kind);
    if (gi.num_qubits >= 0 &&
        gate.operands.size() != static_cast<std::size_t>(gi.num_qubits)) {
      sink.report(Severity::kError, DiagCode::kWrongArity,
                  "gate '" + gate.name + "' expects " +
                      std::to_string(gi.num_qubits) +
                      " qubit operand(s), got " +
                      std::to_string(gate.operands.size()),
                  gate.line);
    }
    if (gate.params.size() != static_cast<std::size_t>(gi.num_params)) {
      sink.report(Severity::kError, DiagCode::kWrongParamCount,
                  "gate '" + gate.name + "' expects " +
                      std::to_string(gi.num_params) + " parameter(s), got " +
                      std::to_string(gate.params.size()),
                  gate.line);
    }
    // An operand repeats when an earlier one names the same in-range
    // qubit. Short lists are scanned; long ones (the count comes from the
    // program text) mark `seen`, which one pass run grows once and each
    // gate clears of its own marks afterwards.
    constexpr std::size_t kScanLimit = 8;
    const bool mark = gate.operands.size() > kScanLimit;
    if (mark && seen.size() < circ.num_qubits) seen.resize(circ.num_qubits);
    for (auto it = gate.operands.begin(); it != gate.operands.end(); ++it) {
      const RegRef& ref = *it;
      check_qubit_ref(circ, ref, sink);
      if (ref.index >= circ.num_qubits) continue;
      bool repeated = false;
      if (mark) {
        repeated = seen[ref.index];
        seen[ref.index] = true;
      } else {
        repeated = std::any_of(gate.operands.begin(), it,
                               [&](const RegRef& earlier) {
                                 return earlier.index == ref.index;
                               });
      }
      if (repeated) {
        sink.report(Severity::kError, DiagCode::kDuplicateQubit,
                    "gate '" + gate.name + "' uses qubit " +
                        std::to_string(ref.index) + " more than once",
                    gate.line);
      }
    }
    if (mark) {
      for (const RegRef& ref : gate.operands) {
        if (ref.index < circ.num_qubits) seen[ref.index] = false;
      }
    }
  }
};

class MeasurementPass final : public LintPass {
 public:
  std::string_view id() const override { return "core.measurement"; }
  std::string_view description() const override {
    return "circuits must produce classical output";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable || facts.has_measurement) continue;
      sink.report(Severity::kWarning, DiagCode::kNoMeasurement,
                  "circuit '" + facts.circuit->name +
                      "' never measures; it produces no output",
                  facts.circuit->line);
    }
  }
};

class UnusedQubitPass final : public LintPass {
 public:
  std::string_view id() const override { return "core.unused-qubit"; }
  std::string_view description() const override {
    return "declared qubits that no operation references";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (const CircuitFacts& facts : ctx.facts.circuits) {
      if (!facts.analyzable) continue;
      for (std::size_t q = 0; q < facts.circuit->num_qubits; ++q) {
        const auto events = facts.qubit_events(q);
        const bool used =
            std::any_of(events.begin(), events.end(), [](const QubitEvent& e) {
              return e.kind != QubitEvent::Kind::kBarrier;
            });
        if (!used) {
          sink.report(Severity::kWarning, DiagCode::kUnusedQubit,
                      concat({"qubit ", std::to_string(q), " of circuit '",
                              facts.circuit->name, "' is never used"}),
                      facts.circuit->line);
        }
      }
    }
  }
};

}  // namespace

void register_core_passes(PassRegistry& registry) {
  registry.add(std::make_unique<ImportsPass>())
      .add(std::make_unique<StructurePass>())
      .add(std::make_unique<GatesPass>())
      .add(std::make_unique<MeasurementPass>())
      .add(std::make_unique<UnusedQubitPass>());
}

}  // namespace qcgen::qasm::lint
