#pragma once
// Gold program templates: the authoritative QasmLite implementation of
// every task in the suite. The evaluation derives reference behaviour by
// compiling and simulating these, and the simulated code-generation model
// emits (possibly perturbed) copies of them.

#include <cstdint>
#include <memory>
#include <string>

#include "llm/tasks.hpp"
#include "qasm/ast.hpp"

namespace qcgen::llm {

/// Builds the correct program for a task. Throws InvalidArgumentError for
/// out-of-range parameters (e.g. grover with n > 3 in this template set).
qasm::Program gold_program(const TaskSpec& task);

/// Exact digest of a task: its algorithm and every param's name and full
/// bit pattern. TaskSpec::id() rounds non-integer params to 3 digits, so
/// two different tasks can share an id; they never share this digest
/// (short of a 64-bit hash collision).
std::uint64_t task_digest(const TaskSpec& task) noexcept;

/// A gold program and its printed source; immutable once built.
struct GoldProgram {
  qasm::Program program;
  std::string source;  ///< qasm::print_program(program)
};

/// The gold program of `task` from a process-wide table keyed by
/// task_digest(task): built and printed on first use, then shared by
/// every caller for the life of the process. Throws like gold_program
/// for invalid params, and caches nothing then. SimLM's wrong-algorithm
/// plans read the parameterless task's entry.
std::shared_ptr<const GoldProgram> shared_gold(const TaskSpec& task);

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
