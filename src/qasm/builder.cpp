#include "qasm/builder.hpp"

#include "common/error.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/parser.hpp"

namespace qcgen::qasm {

namespace {

void lower_stmt(const CircuitDecl& decl, const Stmt& stmt,
                const LanguageRegistry& registry, sim::Circuit& out,
                const std::optional<sim::Condition>& condition) {
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, GateStmt>) {
          auto kind = registry.resolve_gate(s.name);
          if (!kind) {
            throw InvalidArgumentError("build_circuit: unknown gate '" +
                                       s.name + "'");
          }
          sim::Operation op;
          op.kind = *kind;
          for (const RegRef& ref : s.operands) op.qubits.push_back(ref.index);
          for (const ExprPtr& p : s.params) op.params.push_back(p->evaluate());
          op.condition = condition;
          out.append(std::move(op));
        } else if constexpr (std::is_same_v<T, MeasureStmt>) {
          require(!condition.has_value(),
                  "build_circuit: conditioned measure is unsupported");
          out.measure(s.qubit.index, s.clbit.index);
        } else if constexpr (std::is_same_v<T, MeasureAllStmt>) {
          require(!condition.has_value(),
                  "build_circuit: conditioned measure_all is unsupported");
          out.measure_all();
        } else if constexpr (std::is_same_v<T, BarrierStmt>) {
          out.barrier();
        } else if constexpr (std::is_same_v<T, ResetStmt>) {
          sim::Operation op;
          op.kind = sim::GateKind::kReset;
          op.qubits = {s.qubit.index};
          op.condition = condition;
          out.append(std::move(op));
        } else if constexpr (std::is_same_v<T, std::shared_ptr<IfStmt>>) {
          require(!condition.has_value(),
                  "build_circuit: nested if statements are unsupported");
          sim::Condition cond{s->clbit.index, s->value};
          lower_stmt(decl, s->body, registry, out, cond);
        }
      },
      stmt);
}

}  // namespace

sim::Circuit build_circuit(const Program& program,
                           const LanguageRegistry& registry) {
  const CircuitDecl* decl = program.entry();
  require(decl != nullptr, "build_circuit: program has no circuit");
  require(decl->num_qubits >= 1, "build_circuit: circuit has zero qubits");
  sim::Circuit circuit(decl->num_qubits, decl->num_clbits);
  for (const Stmt& stmt : decl->body) {
    lower_stmt(*decl, stmt, registry, circuit, std::nullopt);
  }
  return circuit;
}

sim::Circuit compile_or_throw(std::string_view source) {
  ParseResult parsed = parse(source);
  if (!parsed.ok()) {
    throw InvalidArgumentError("compile_or_throw: parse failed:\n" +
                               format_error_trace(parsed.diagnostics));
  }
  AnalysisReport report = analyze(*parsed.program);
  if (!report.ok()) {
    throw InvalidArgumentError("compile_or_throw: analysis failed:\n" +
                               format_error_trace(report.diagnostics));
  }
  return build_circuit(*parsed.program);
}

}  // namespace qcgen::qasm
