#pragma once
// SimLM: the simulated quantum-code language model.
//
// Substitutes the paper's fine-tuned StarCoder (see DESIGN.md §2). Given
// a task and a technique context it emits QasmLite source by (1) planning
// — choosing the right algorithm template with probability given by its
// semantic knowledge, as modified by RAG retrieval results and CoT/SCoT
// scaffolds — and (2) surface realisation — printing the planned AST
// with stochastic fault injection whose rates derive from the knowledge
// state. Faults are recorded in the artifact so experiments can analyse
// error classes; the repair path uses records only where gated by an
// explicit "model remembers its intent" probability.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "llm/cot.hpp"
#include "llm/knowledge.hpp"
#include "llm/tasks.hpp"
#include "llm/templates.hpp"
#include "llm/vectorstore.hpp"
#include "qasm/ast.hpp"
#include "qasm/diagnostics.hpp"

namespace qcgen::llm {

/// Classes of injected generation faults.
enum class FaultKind {
  kDeprecatedImport,
  kUnknownImport,
  kParseCorruption,
  kUnknownGate,
  kWrongArity,
  kWrongParamCount,
  kIndexError,
  kMissingMeasure,
  kWrongPlan,      ///< wrong algorithm or broken structure
  kSemanticSlip,   ///< right plan, wrong detail
};

std::string_view fault_kind_name(FaultKind kind);

/// Record of one injected fault (detail strings are class-specific,
/// e.g. the original gate mnemonic for kUnknownGate).
struct Fault {
  FaultKind kind = FaultKind::kSemanticSlip;
  std::string detail;
  std::size_t stmt_index = 0;
};

/// Technique configuration for one generation request.
struct GenerationContext {
  const VectorStore* api_store = nullptr;    ///< RAG over API docs
  const VectorStore* guide_store = nullptr;  ///< RAG over algorithm guides
  /// The run's memo of both stores' queries (one per eval matrix or
  /// server); null queries the stores uncached.
  RetrievalCache* retrieval_cache = nullptr;
  std::size_t rag_top_k = 4;
  std::optional<CotStyle> cot;
  bool cot_hand_written = false;
  /// Syntactic stress of the benchmark (QHE > semantic suite).
  double syntax_difficulty = 1.0;
  /// The task's gold program and its printed source, shared (eval and
  /// serving hand in the one their reference oracle simulated). Null:
  /// SimLM takes it from shared_gold(task). Never mutated.
  std::shared_ptr<const GoldProgram> gold;
};

/// Summary of RAG retrieval during one generation.
struct RetrievalTrace {
  std::size_t api_hits = 0;
  std::size_t api_fresh_hits = 0;
  bool guide_matched_algorithm = false;
};

/// One generated program plus provenance.
struct GenerationResult {
  std::string source;
  /// AST actually emitted (faults baked in, before text-level parse
  /// corruption). Shared and immutable: it is `intended_ast` itself when
  /// no fault wrote to the plan, and a repair that keeps it hands the
  /// same object on; only a fault or a repair edit copies it.
  std::shared_ptr<const qasm::Program> ast;
  /// AST the model planned before surface-fault injection ("intent");
  /// statement indices align with `ast` (surface faults are in-place).
  /// Shared and immutable: a correct plan aliases the task's gold
  /// program, and repairs hand the same object on.
  std::shared_ptr<const qasm::Program> intended_ast;
  std::vector<Fault> faults;
  std::optional<CotScaffold> scaffold;
  RetrievalTrace retrieval;
  KnowledgeState effective;  ///< knowledge after technique boosts
};

/// A program shared until a fault first writes to it (simlm.cpp).
class CowProgram;

/// The simulated model. Deterministic given (knowledge, seed) and the
/// request stream.
class SimLM {
 public:
  SimLM(KnowledgeState knowledge, std::uint64_t seed);
  /// Reads a shared knowledge state instead of owning a copy.
  SimLM(std::shared_ptr<const KnowledgeState> knowledge, std::uint64_t seed);

  const KnowledgeState& knowledge() const noexcept { return *knowledge_; }

  /// Generates one sample for a task.
  GenerationResult generate(const TaskSpec& task,
                            const GenerationContext& context);

  /// Multi-pass repair (paper Sec IV-A): takes the previous artifact and
  /// its diagnostic trace and attempts class-specific fixes; when the
  /// program was behaviourally wrong despite clean diagnostics
  /// (`semantic_failure`), replans with a small per-pass semantic boost.
  GenerationResult repair(const TaskSpec& task, const GenerationResult& prev,
                          const std::vector<qasm::Diagnostic>& diagnostics,
                          bool semantic_failure,
                          const GenerationContext& context, int pass_number);

 private:
  GenerationResult generate_with(const TaskSpec& task,
                                 const GenerationContext& context,
                                 double extra_semantic_boost);
  KnowledgeState effective_knowledge(const TaskSpec& task,
                                     const GenerationContext& context,
                                     RetrievalTrace& trace,
                                     std::optional<CotScaffold>& scaffold);
  /// The planned program. `entry` is set to the gold entry whose program
  /// it is, or to null for a structurally corrupted plan.
  std::shared_ptr<const qasm::Program> plan(
      const TaskSpec& task, const KnowledgeState& knowledge,
      const std::shared_ptr<const GoldProgram>& gold,
      std::vector<Fault>& faults, std::shared_ptr<const GoldProgram>& entry);
  void inject_surface_faults(CowProgram& program, const FaultRates& rates,
                             std::vector<Fault>& faults);
  /// Prints `program`, reusing `entry`'s source when `program` is the
  /// entry's own object, then applies text-level faults.
  std::string realise(const qasm::Program& program, const GoldProgram* entry,
                      const FaultRates& rates, std::vector<Fault>& faults);

  std::shared_ptr<const KnowledgeState> knowledge_;
  Rng rng_;
};

/// Repair-success probabilities per diagnostic class (paper Sec V-D:
/// import misuse resists repair; mechanical errors fix easily).
double repair_success_probability(qasm::DiagCode code);

/// Per-diagnostic repair probability. Diagnostics carrying a fix-it are
/// near-certain to be repaired regardless of class: the error trace
/// hands the model the exact replacement line, so it only has to copy it
/// instead of re-deriving the edit. This is the mechanism by which the
/// lint fix-its lower mean passes-to-success in bench_multipass.
double repair_success_probability(const qasm::Diagnostic& diag);

/// Probability that a semantically-failed but statically-clean program
/// triggers a genuine replan on pass `pass_number` (small: the model
/// usually reproduces the same flawed plan).
double semantic_replan_probability(int pass_number);

}  // namespace qcgen::llm
