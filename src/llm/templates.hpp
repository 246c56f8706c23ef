#pragma once
// Gold program templates: the authoritative QasmLite implementation of
// every task in the suite. The evaluation derives reference behaviour by
// compiling and simulating these, and the simulated code-generation model
// emits (possibly perturbed) copies of them.

#include <memory>

#include "llm/tasks.hpp"
#include "qasm/ast.hpp"

namespace qcgen::llm {

/// Builds the correct program for a task. Throws InvalidArgumentError for
/// out-of-range parameters (e.g. grover with n > 3 in this template set).
qasm::Program gold_program(const TaskSpec& task);

/// The gold program of `id` at its default parameters, built once per
/// process (one immutable entry per AlgorithmId) and shared by every
/// caller — SimLM's wrong-algorithm plans read it instead of rebuilding.
std::shared_ptr<const qasm::Program> default_gold_program(AlgorithmId id);

// AST construction helpers shared with the fault injector.
qasm::Stmt make_gate(std::string name, const std::vector<std::size_t>& qubits,
                     const std::vector<double>& params = {},
                     const std::string& qreg = "q");
qasm::Stmt make_pi_gate(std::string name, const std::vector<std::size_t>& qubits,
                        std::vector<qasm::ExprPtr> params,
                        const std::string& qreg = "q");
qasm::Stmt make_measure(std::size_t qubit, std::size_t clbit);
qasm::Stmt make_measure_all();
qasm::Stmt make_barrier();
qasm::Stmt make_if(std::size_t clbit, bool value, qasm::Stmt body);
/// pi * `num` / `den` as a symbolic expression (prints as "pi / 4" etc.).
qasm::ExprPtr pi_fraction(int num, int den);

}  // namespace qcgen::llm
