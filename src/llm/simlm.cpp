#include "llm/simlm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "llm/templates.hpp"
#include "qasm/language.hpp"
#include "qasm/printer.hpp"

namespace qcgen::llm {

using qasm::DiagCode;
using qasm::GateStmt;
using qasm::Import;
using qasm::Program;
using qasm::RegRef;
using qasm::Stmt;

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDeprecatedImport: return "deprecated-import";
    case FaultKind::kUnknownImport: return "unknown-import";
    case FaultKind::kParseCorruption: return "parse-corruption";
    case FaultKind::kUnknownGate: return "unknown-gate";
    case FaultKind::kWrongArity: return "wrong-arity";
    case FaultKind::kWrongParamCount: return "wrong-param-count";
    case FaultKind::kIndexError: return "index-error";
    case FaultKind::kMissingMeasure: return "missing-measure";
    case FaultKind::kWrongPlan: return "wrong-plan";
    case FaultKind::kSemanticSlip: return "semantic-slip";
  }
  return "?";
}

double repair_success_probability(DiagCode code) {
  switch (code) {
    case DiagCode::kLexError:
    case DiagCode::kParseError:
      return 0.45;
    case DiagCode::kDeprecatedImport:
      return 0.10;  // paper: import misuse dominates and resists repair
    case DiagCode::kUnknownImport:
      return 0.35;
    case DiagCode::kMissingQiskitImport:
      return 0.55;
    case DiagCode::kUnknownGate:
      return 0.40;
    case DiagCode::kWrongArity:
    case DiagCode::kWrongParamCount:
      return 0.45;
    case DiagCode::kQubitOutOfRange:
    case DiagCode::kClbitOutOfRange:
      return 0.55;
    case DiagCode::kNoMeasurement:
      return 0.45;
    case DiagCode::kDeterministicMeasurement:
    case DiagCode::kNonAdjacentQubits:
      // Informational abstract facts: a constant outcome is not a defect
      // to patch, and routing needs a compiler, not a line edit.
      return 0.0;
    case DiagCode::kQubitReuse:
    case DiagCode::kIdleQubitHotspot:
    case DiagCode::kUncomputedAncilla:
    case DiagCode::kDepthDominatingLayer:
      // Resource-analysis advisories: reuse/idle/serialisation findings
      // describe cost, not incorrectness — the program behaves the same
      // without the edit, so the repair loop leaves them alone (the
      // certified fix-it path in qasm/verify applies qubit-reuse).
      return 0.0;
    case DiagCode::kUnreachableConditional:
    case DiagCode::kRedundantReset:
    case DiagCode::kTrivialControlledGate:
      // Proof-backed dead code: the trace says exactly which statement
      // can be deleted, so the model usually gets it right.
      return 0.5;
    default:
      return 0.20;
  }
}

double repair_success_probability(const qasm::Diagnostic& diag) {
  const double base = repair_success_probability(diag.code);
  // Informational facts stay informational even when a fix-it rides along.
  if (base <= 0.0) return base;
  // A fix-it in the trace turns the repair into verbatim line copying;
  // even the resistant classes (deprecated imports) become near-certain.
  if (diag.fixit.has_value()) return std::max(base, 0.92);
  return base;
}

double semantic_replan_probability(int pass_number) {
  // The model's algorithmic knowledge is persistent: told only that the
  // behaviour was wrong, it usually reproduces the same flawed plan
  // (paper Sec V-D: multi-pass mainly resolves syntactic errors, and
  // semantic improvement needs prompt-error-answer training data the
  // framework lacks).
  return std::min(0.06, 0.02 + 0.005 * static_cast<double>(pass_number));
}

/// A program shared until first written: read() is the current version
/// and write() copies the shared one on its first call, so a generation
/// no fault touches emits its plan without copying it.
class CowProgram {
 public:
  explicit CowProgram(std::shared_ptr<const qasm::Program> shared)
      : shared_(std::move(shared)) {}
  const qasm::Program& read() const { return owned_ ? *owned_ : *shared_; }
  qasm::Program& write() {
    if (!owned_) owned_ = std::make_shared<qasm::Program>(*shared_);
    return *owned_;
  }
  /// The current version as an immutable handle.
  std::shared_ptr<const qasm::Program> share() const {
    if (owned_) return owned_;
    return shared_;
  }

 private:
  std::shared_ptr<const qasm::Program> shared_;
  std::shared_ptr<qasm::Program> owned_;
};

SimLM::SimLM(KnowledgeState knowledge, std::uint64_t seed)
    : SimLM(std::make_shared<const KnowledgeState>(std::move(knowledge)),
            seed) {}

SimLM::SimLM(std::shared_ptr<const KnowledgeState> knowledge,
             std::uint64_t seed)
    : knowledge_(std::move(knowledge)), rng_(seed) {
  require(knowledge_ != nullptr, "SimLM: null knowledge");
}

KnowledgeState SimLM::effective_knowledge(const TaskSpec& task,
                                          const GenerationContext& context,
                                          RetrievalTrace& trace,
                                          std::optional<CotScaffold>& scaffold) {
  KnowledgeState k = *knowledge_;
  const std::string query = prompt_text(task);

  if (context.api_store != nullptr) {
    const auto hits = context.api_store->retrieve(
        query + " import module library version", context.rag_top_k,
        context.retrieval_cache);
    trace.api_hits = hits.size();
    // Only hits whose actionable snippet (the import statement) survived
    // chunking can teach the model anything about the API surface — the
    // paper's "basic RAG splitting technique, which does not take into
    // account code structure" loses exactly these snippets.
    std::size_t actionable = 0;
    for (const Retrieved& r : hits) {
      if (r.chunk->text.find("import ") == std::string::npos) continue;
      ++actionable;
      if (r.chunk->freshness == DocFreshness::kCurrent) {
        ++trace.api_fresh_hits;
      }
    }
    if (actionable > 0) {
      const double fresh_frac = static_cast<double>(trace.api_fresh_hits) /
                                static_cast<double>(actionable);
      // Fresh docs improve API recency; a stale-dominated context
      // actively reinforces the removed APIs (paper Sec V-E).
      k.api_recency = KnowledgeState::boost(
          k.api_recency, 0.25 * fresh_frac - 0.25 * (1.0 - fresh_frac));
      k.syntax_skill = KnowledgeState::boost(k.syntax_skill, 0.04 * fresh_frac);
    }
  }
  if (context.guide_store != nullptr) {
    const auto hits = context.guide_store->retrieve(query, context.rag_top_k,
                                                    context.retrieval_cache);
    for (const Retrieved& r : hits) {
      if (r.chunk->algorithm == task.algorithm) {
        trace.guide_matched_algorithm = true;
        break;
      }
    }
    // Retrieval of the right guide gives a *limited* semantic boost —
    // the paper found inferring structure from chunks far weaker than
    // CoT's direct scaffolding.
    if (trace.guide_matched_algorithm) {
      k.semantic[task.algorithm] =
          KnowledgeState::boost(k.semantic_for(task.algorithm), 0.05);
    }
  }
  if (context.cot.has_value()) {
    scaffold = generate_scaffold(task, *context.cot, context.cot_hand_written,
                                 rng_);
    const double delta = scaffold->faithful ? semantic_boost(*context.cot)
                                            : semantic_penalty(*context.cot);
    k.semantic[task.algorithm] =
        KnowledgeState::boost(k.semantic_for(task.algorithm), delta);
    if (scaffold->faithful) {
      // Structured sections keep statements well-formed too.
      k.syntax_skill =
          KnowledgeState::boost(k.syntax_skill, syntax_boost(*context.cot));
    }
  }
  return k;
}

namespace {

std::vector<Stmt>& entry_body(Program& program) {
  require(!program.circuits.empty(), "SimLM: program has no circuit");
  return program.circuits.front().body;
}

const std::vector<Stmt>& entry_body(const Program& program) {
  require(!program.circuits.empty(), "SimLM: program has no circuit");
  return program.circuits.front().body;
}

bool is_gate(const Stmt& stmt) {
  return std::holds_alternative<GateStmt>(stmt);
}

/// Indices of gate statements in the body.
std::vector<std::size_t> gate_indices(const std::vector<Stmt>& body) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (is_gate(body[i])) out.push_back(i);
  }
  return out;
}

/// True for algorithm pairs whose default gold programs are behaviourally
/// identical (a "wrong" plan that would still pass the judge).
bool behaviourally_equivalent(AlgorithmId a, AlgorithmId b) {
  const auto is_uniform = [](AlgorithmId id) {
    return id == AlgorithmId::kSuperposition || id == AlgorithmId::kRandomNumber;
  };
  return is_uniform(a) && is_uniform(b);
}

/// A same-tier alternative algorithm (deterministic order, rng-chosen).
AlgorithmId wrong_algorithm(AlgorithmId correct, Rng& rng) {
  std::vector<AlgorithmId> candidates;
  for (AlgorithmId id : all_algorithms()) {
    if (id != correct && algorithm_tier(id) == algorithm_tier(correct) &&
        !behaviourally_equivalent(id, correct)) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) return correct;
  return candidates[rng.uniform_int(
      static_cast<std::uint64_t>(candidates.size()))];
}

/// Gates whose operand order matters (reversing them changes behaviour).
bool order_sensitive(const GateStmt& g) {
  return (g.name == "cx" || g.name == "cy" || g.name == "ccx" ||
          g.name == "cswap") &&
         g.operands.size() >= 2;
}

/// Structural corruption of a correct plan: one of several realistic
/// algorithm-level mistakes. Each mode verifies it actually changed the
/// program and falls through to the next otherwise, ending at an
/// always-effective bit flip (X prepended to qubit 0). Returns a
/// description.
std::string corrupt_structure(Program& program, Rng& rng) {
  auto& body = entry_body(program);
  const auto gates = gate_indices(body);
  const auto mode = rng.uniform_int(static_cast<std::uint64_t>(4));
  if (mode == 0) {
    // Drop the leading preparation layer (all h gates before the first
    // non-h gate).
    std::vector<Stmt> out;
    bool dropping = true;
    bool dropped = false;
    for (Stmt& s : body) {
      if (dropping && is_gate(s) && std::get<GateStmt>(s).name == "h") {
        dropped = true;
        continue;
      }
      if (is_gate(s) && std::get<GateStmt>(s).name != "h") dropping = false;
      out.push_back(std::move(s));
    }
    if (dropped) {
      body = std::move(out);
      return "dropped-preparation-layer";
    }
    body = std::move(out);  // unchanged contents, restore
  }
  if (mode <= 1) {
    // Reverse operands of order-sensitive multi-qubit gates.
    bool reversed = false;
    for (std::size_t i : gates) {
      auto& g = std::get<GateStmt>(body[i]);
      if (order_sensitive(g)) {
        std::reverse(g.operands.begin(), g.operands.end());
        reversed = true;
      }
    }
    if (reversed) return "reversed-entangler-operands";
  }
  if (mode <= 2) {
    // Shift every rotation parameter by pi (wrong phase convention).
    bool shifted = false;
    for (std::size_t i : gates) {
      auto& g = std::get<GateStmt>(body[i]);
      for (auto& p : g.params) {
        p = qasm::Expr::make_binary(qasm::Expr::Kind::kAdd, p,
                                    qasm::Expr::make_pi());
        shifted = true;
      }
    }
    if (shifted) return "shifted-parameters";
  }
  // Remove the middle third of the gate statements (lost core
  // transformation).
  if (gates.size() >= 3) {
    const std::size_t begin = gates[gates.size() / 3];
    const std::size_t end = gates[2 * gates.size() / 3];
    std::vector<Stmt> out;
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (i >= begin && i <= end && is_gate(body[i])) continue;
      out.push_back(std::move(body[i]));
    }
    body = std::move(out);
    return "dropped-core-segment";
  }
  // Last resort: a stray bit flip before everything else.
  body.insert(body.begin(), make_gate("x", {0}));
  return "stray-bitflip";
}

/// Small in-plan slip: one wrong detail on a random gate.
std::string apply_slip(CowProgram& program, Rng& rng) {
  const auto gates = gate_indices(entry_body(program.read()));
  if (gates.empty()) return "noop";
  auto& g = std::get<GateStmt>(entry_body(program.write())[gates[
      rng.uniform_int(static_cast<std::uint64_t>(gates.size()))]]);
  if (order_sensitive(g) && rng.bernoulli(0.5)) {
    std::swap(g.operands[0], g.operands[1]);
    return "swapped-operands:" + g.name;
  }
  if (!g.params.empty()) {
    g.params[0] = qasm::Expr::make_binary(
        qasm::Expr::Kind::kAdd, g.params[0],
        qasm::Expr::make_binary(qasm::Expr::Kind::kDiv, qasm::Expr::make_pi(),
                                qasm::Expr::make_number(2.0)));
    return "shifted-angle:" + g.name;
  }
  const std::string original = g.name;
  g.name = g.name == "h" ? "x" : "h";
  return "replaced-gate:" + original + "->" + g.name;
}

/// `program` printed: the gold entry's source when `program` is that
/// entry's own object (a plan nothing wrote to), else a fresh print.
std::string print_source(const Program& program, const GoldProgram* entry) {
  if (entry != nullptr && &program == &entry->program) return entry->source;
  return qasm::print_program(program);
}

const char* kBogusGateNames[] = {"u2", "mcx", "crx", "hadamard", "not"};
const char* kBogusImports[] = {"quantum_utils", "qiskit_terra.tools",
                               "qclib.runtime"};

}  // namespace

std::shared_ptr<const Program> SimLM::plan(
    const TaskSpec& task, const KnowledgeState& knowledge,
    const std::shared_ptr<const GoldProgram>& gold, std::vector<Fault>& faults,
    std::shared_ptr<const GoldProgram>& entry) {
  const double sem = knowledge.semantic_for(task.algorithm);
  if (rng_.bernoulli(sem)) {
    entry = gold != nullptr ? gold : shared_gold(task);
    return {entry, &entry->program};
  }
  // Wrong plan: either the wrong algorithm entirely or a structurally
  // broken rendition of the right one.
  if (rng_.bernoulli(0.45)) {
    const AlgorithmId wrong = wrong_algorithm(task.algorithm, rng_);
    faults.push_back(Fault{FaultKind::kWrongPlan,
                           "wrong-algorithm:" +
                               std::string(algorithm_name(wrong)),
                           0});
    TaskSpec defaults;  // default parameters
    defaults.algorithm = wrong;
    entry = shared_gold(defaults);
    return {entry, &entry->program};
  }
  // The one mutating plan works on its own copy of the gold program.
  entry = nullptr;
  Program program = (gold != nullptr ? gold : shared_gold(task))->program;
  const std::string detail = corrupt_structure(program, rng_);
  faults.push_back(Fault{FaultKind::kWrongPlan, detail, 0});
  return std::make_shared<const Program>(std::move(program));
}

void SimLM::inject_surface_faults(CowProgram& program, const FaultRates& rates,
                                  std::vector<Fault>& faults) {
  const auto& registry = qasm::LanguageRegistry::current();
  const std::vector<Stmt>& planned_body = entry_body(program.read());
  // Every fault writes through program.write(); statement positions never
  // move, so indices read off the shared plan stay valid in the copy.
  const auto gate_at = [&](std::size_t idx) -> GateStmt& {
    return std::get<GateStmt>(entry_body(program.write())[idx]);
  };

  if (rng_.bernoulli(rates.deprecated_import)) {
    const auto& deprecated = registry.deprecated_imports();
    const std::string& pick = deprecated[rng_.uniform_int(
        static_cast<std::uint64_t>(deprecated.size()))];
    program.write().imports.push_back(Import{pick, 0});
    faults.push_back(Fault{FaultKind::kDeprecatedImport, pick, 0});
  }
  if (rng_.bernoulli(rates.unknown_import)) {
    const std::string pick = kBogusImports[rng_.uniform_int(
        static_cast<std::uint64_t>(std::size(kBogusImports)))];
    program.write().imports.push_back(Import{pick, 0});
    faults.push_back(Fault{FaultKind::kUnknownImport, pick, 0});
  }

  const auto gates = gate_indices(planned_body);
  if (!gates.empty() && rng_.bernoulli(rates.gate_misuse)) {
    const std::size_t idx =
        gates[rng_.uniform_int(static_cast<std::uint64_t>(gates.size()))];
    auto& g = gate_at(idx);
    switch (rng_.uniform_int(static_cast<std::uint64_t>(3))) {
      case 0: {
        faults.push_back(Fault{FaultKind::kUnknownGate, g.name, idx});
        g.name = kBogusGateNames[rng_.uniform_int(
            static_cast<std::uint64_t>(std::size(kBogusGateNames)))];
        break;
      }
      case 1: {
        faults.push_back(Fault{FaultKind::kWrongArity, g.name, idx});
        if (g.operands.size() >= 2 && rng_.bernoulli(0.5)) {
          g.operands.pop_back();
        } else {
          const std::size_t extra =
              g.operands.empty() ? 0 : (g.operands.back().index + 1);
          g.operands.push_back(RegRef{"q", extra, 0});
        }
        break;
      }
      default: {
        faults.push_back(Fault{FaultKind::kWrongParamCount, g.name, idx});
        if (!g.params.empty()) {
          g.params.clear();
        } else {
          g.params.push_back(qasm::Expr::make_number(0.5));
        }
        break;
      }
    }
  }
  if (!gates.empty() && rng_.bernoulli(rates.index_error)) {
    const std::size_t idx =
        gates[rng_.uniform_int(static_cast<std::uint64_t>(gates.size()))];
    const qasm::CircuitDecl& entry = program.read().circuits.front();
    if (!std::get<GateStmt>(entry.body[idx]).operands.empty()) {
      const std::size_t one_past = entry.num_qubits;  // read before copying
      auto& g = gate_at(idx);
      g.operands[0].index = one_past;
      faults.push_back(Fault{FaultKind::kIndexError, g.name, idx});
    }
  }
  const auto is_measure = [](const Stmt& stmt) {
    return std::holds_alternative<qasm::MeasureStmt>(stmt) ||
           std::holds_alternative<qasm::MeasureAllStmt>(stmt);
  };
  if (rng_.bernoulli(rates.missing_measure)) {
    const std::vector<Stmt>& body = entry_body(program.read());
    if (std::any_of(body.begin(), body.end(), is_measure)) {
      for (Stmt& stmt : entry_body(program.write())) {
        if (is_measure(stmt)) stmt = Stmt{qasm::BarrierStmt{0}};  // keep indices
      }
      faults.push_back(Fault{FaultKind::kMissingMeasure, "", 0});
    }
  }
}

std::string SimLM::realise(const Program& program, const GoldProgram* entry,
                           const FaultRates& rates,
                           std::vector<Fault>& faults) {
  std::string source = print_source(program, entry);
  if (rng_.bernoulli(rates.parse_corruption)) {
    // Delete a random semicolon or brace: the classic truncation /
    // malformed-line failure of autoregressive code models.
    std::vector<std::size_t> spots;
    for (std::size_t i = 0; i < source.size(); ++i) {
      if (source[i] == ';' || source[i] == '}') spots.push_back(i);
    }
    if (!spots.empty()) {
      const std::size_t pos =
          spots[rng_.uniform_int(static_cast<std::uint64_t>(spots.size()))];
      source.erase(pos, 1);
      faults.push_back(Fault{FaultKind::kParseCorruption,
                             "deleted:" + std::string(1, ';'), 0});
    }
  }
  return source;
}

GenerationResult SimLM::generate_with(const TaskSpec& task,
                                      const GenerationContext& context,
                                      double extra_semantic_boost) {
  GenerationResult result;
  std::optional<CotScaffold> scaffold;
  KnowledgeState k =
      effective_knowledge(task, context, result.retrieval, scaffold);
  if (extra_semantic_boost > 0.0) {
    k.semantic[task.algorithm] = KnowledgeState::boost(
        k.semantic_for(task.algorithm), extra_semantic_boost);
  }
  result.scaffold = std::move(scaffold);

  std::shared_ptr<const GoldProgram> entry;
  result.intended_ast = plan(task, k, context.gold, result.faults, entry);
  // The emitted program is the plan until a fault writes to it.
  CowProgram emitted(result.intended_ast);

  const FaultRates rates =
      fault_rates(k, task.algorithm, context.syntax_difficulty);
  // In-plan slip only when the plan itself is right.
  const bool planned_correctly =
      std::none_of(result.faults.begin(), result.faults.end(),
                   [](const Fault& f) { return f.kind == FaultKind::kWrongPlan; });
  if (planned_correctly && rng_.bernoulli(rates.semantic_slip)) {
    const std::string detail = apply_slip(emitted, rng_);
    result.faults.push_back(Fault{FaultKind::kSemanticSlip, detail, 0});
  }
  inject_surface_faults(emitted, rates, result.faults);
  result.ast = emitted.share();
  result.source = realise(*result.ast, entry.get(), rates, result.faults);
  result.effective = std::move(k);
  return result;
}

GenerationResult SimLM::generate(const TaskSpec& task,
                                 const GenerationContext& context) {
  return generate_with(task, context, 0.0);
}

GenerationResult SimLM::repair(const TaskSpec& task,
                               const GenerationResult& prev,
                               const std::vector<qasm::Diagnostic>& diagnostics,
                               bool semantic_failure,
                               const GenerationContext& context,
                               int pass_number) {
  require(pass_number >= 1, "SimLM::repair: pass_number >= 1");
  const bool has_error_diags = qasm::has_errors(diagnostics);
  if (!has_error_diags && semantic_failure) {
    // Behaviourally wrong but statically clean. Mostly the model sticks
    // to its flawed plan (no new information about the algorithm); only
    // occasionally does the feedback trigger a genuine replan. Abstract
    // facts in the trace (e.g. "this measurement is provably constant 0",
    // "this cx has a |0> control") are new information about *why* the
    // behaviour is wrong — precisely what a bare mismatch signal lacks —
    // so they multiply the replan odds.
    const bool has_abstract_facts = std::any_of(
        diagnostics.begin(), diagnostics.end(),
        [](const qasm::Diagnostic& d) {
          return d.code == DiagCode::kDeterministicMeasurement ||
                 d.code == DiagCode::kUnreachableConditional ||
                 d.code == DiagCode::kRedundantReset ||
                 d.code == DiagCode::kTrivialControlledGate;
        });
    const double replan = semantic_replan_probability(pass_number) *
                          (has_abstract_facts ? 4.0 : 1.0);
    if (!rng_.bernoulli(replan)) return prev;
    return generate_with(task, context,
                         0.10 * static_cast<double>(pass_number));
  }

  // Fix probability decays with repeated attempts: a model that failed to
  // fix an error class once tends to repeat the same wrong fix (paper:
  // additional passes beyond the third yield limited benefit).
  const double attempt_decay =
      std::pow(0.55, static_cast<double>(pass_number - 1));

  // Everything but the source and the fault list carries over; those two
  // are rebuilt below, so they are not copied from `prev` (which stays
  // untouched: a retried repair sees the same input). The AST is shared
  // until an edit first writes to it, so a repair whose every draw fails
  // hands `prev.ast` on.
  GenerationResult next;
  require(!prev.ast->circuits.empty(), "SimLM: program has no circuit");
  CowProgram ast(prev.ast);
  next.intended_ast = prev.intended_ast;
  next.scaffold = prev.scaffold;
  next.retrieval = prev.retrieval;
  next.effective = prev.effective;
  const auto& registry = qasm::LanguageRegistry::current();
  // Reads see the current version; an edit copies the shared one first.
  const auto body = [&]() -> const std::vector<Stmt>& {
    return entry_body(ast.read());
  };
  const auto edit = [&]() -> std::vector<Stmt>& {
    return entry_body(ast.write());
  };
  // Null when the artifact carries no intent: restoring a statement from
  // it would then copy the statement onto itself, so nothing is restored.
  const std::vector<Stmt>* intended_body =
      prev.intended_ast == nullptr || prev.intended_ast->circuits.empty()
          ? nullptr
          : &prev.intended_ast->circuits.front().body;

  // Track which fault records were resolved so the artifact stays honest.
  std::vector<Fault> remaining;
  const auto fault_matching = [&](FaultKind kind) -> const Fault* {
    for (const Fault& f : prev.faults) {
      if (f.kind == kind) return &f;
    }
    return nullptr;
  };

  bool reprint_cleanly = false;
  std::vector<FaultKind> fixed;
  int drop_unreachable = 0;
  int drop_redundant_reset = 0;
  int drop_trivial_control = 0;
  for (const qasm::Diagnostic& diag : diagnostics) {
    const double p = repair_success_probability(diag) * attempt_decay;
    // Skip zero-probability diags without consuming a draw so the RNG
    // stream matches runs where the informational passes are disabled.
    if (p <= 0.0 || !rng_.bernoulli(p)) continue;
    switch (diag.code) {
      case DiagCode::kLexError:
      case DiagCode::kParseError:
        reprint_cleanly = true;
        fixed.push_back(FaultKind::kParseCorruption);
        break;
      case DiagCode::kDeprecatedImport: {
        for (std::size_t i = 0; i < ast.read().imports.size(); ++i) {
          const std::string& path = ast.read().imports[i].path;
          if (registry.import_status(path) != qasm::ImportStatus::kDeprecated) {
            continue;
          }
          const auto repl = registry.import_replacement(path);
          ast.write().imports[i].path =
              repl ? *repl : std::string(registry.required_import());
        }
        fixed.push_back(FaultKind::kDeprecatedImport);
        break;
      }
      case DiagCode::kUnknownImport: {
        const auto unknown = [&](const Import& imp) {
          return registry.import_status(imp.path) == qasm::ImportStatus::kUnknown;
        };
        if (std::any_of(ast.read().imports.begin(), ast.read().imports.end(),
                        unknown)) {
          std::erase_if(ast.write().imports, unknown);
        }
        fixed.push_back(FaultKind::kUnknownImport);
        break;
      }
      case DiagCode::kMissingQiskitImport:
        ast.write().imports.insert(ast.write().imports.begin(),
                                   Import{"qiskit", 1});
        break;
      case DiagCode::kUnknownGate: {
        const Fault* record = fault_matching(FaultKind::kUnknownGate);
        for (std::size_t i = 0; i < body().size(); ++i) {
          if (!is_gate(body()[i]) ||
              registry.is_known_gate(std::get<GateStmt>(body()[i]).name)) {
            continue;
          }
          auto& g = std::get<GateStmt>(edit()[i]);
          if (record != nullptr && record->stmt_index == i &&
              rng_.bernoulli(0.75)) {
            // The model "remembers its intent" and restores the original.
            g.name = record->detail;
          } else {
            // Plausible guess from context: same arity, Clifford default.
            static const char* k1q[] = {"h", "x", "z"};
            static const char* k2q[] = {"cx", "cz", "swap"};
            static const char* k3q[] = {"ccx", "cswap"};
            const std::size_t arity = g.operands.size();
            if (arity <= 1) {
              g.name = k1q[rng_.uniform_int(static_cast<std::uint64_t>(3))];
            } else if (arity == 2) {
              g.name = k2q[rng_.uniform_int(static_cast<std::uint64_t>(3))];
            } else {
              g.name = k3q[rng_.uniform_int(static_cast<std::uint64_t>(2))];
            }
            g.params.clear();
          }
        }
        fixed.push_back(FaultKind::kUnknownGate);
        break;
      }
      case DiagCode::kWrongArity:
      case DiagCode::kWrongParamCount: {
        const FaultKind kind = diag.code == DiagCode::kWrongArity
                                   ? FaultKind::kWrongArity
                                   : FaultKind::kWrongParamCount;
        const Fault* record = fault_matching(kind);
        if (record != nullptr && intended_body != nullptr &&
            record->stmt_index < body().size() &&
            record->stmt_index < intended_body->size()) {
          edit()[record->stmt_index] = (*intended_body)[record->stmt_index];
        }
        fixed.push_back(kind);
        break;
      }
      case DiagCode::kQubitOutOfRange:
      case DiagCode::kClbitOutOfRange: {
        const std::size_t limit = ast.read().circuits.front().num_qubits;
        for (std::size_t i = 0; i < body().size(); ++i) {
          if (!is_gate(body()[i])) continue;
          const auto& operands = std::get<GateStmt>(body()[i]).operands;
          for (std::size_t j = 0; j < operands.size(); ++j) {
            if (operands[j].index < limit) continue;
            std::get<GateStmt>(edit()[i]).operands[j].index = limit - 1;
          }
        }
        fixed.push_back(FaultKind::kIndexError);
        break;
      }
      case DiagCode::kNoMeasurement: {
        const Fault* record = fault_matching(FaultKind::kMissingMeasure);
        if (record != nullptr) {
          for (std::size_t i = 0; intended_body != nullptr &&
                                  i < body().size() &&
                                  i < intended_body->size();
               ++i) {
            const Stmt& intended = (*intended_body)[i];
            if (std::holds_alternative<qasm::MeasureStmt>(intended) ||
                std::holds_alternative<qasm::MeasureAllStmt>(intended)) {
              edit()[i] = intended;
            }
          }
          fixed.push_back(FaultKind::kMissingMeasure);
        }
        break;
      }
      case DiagCode::kDeprecatedGateAlias: {
        for (std::size_t i = 0; i < body().size(); ++i) {
          if (!is_gate(body()[i])) continue;
          const std::string& name = std::get<GateStmt>(body()[i]).name;
          if (registry.is_deprecated_gate_alias(name)) {
            const std::string canonical(
                sim::gate_name(*registry.resolve_gate(name)));
            std::get<GateStmt>(edit()[i]).name = canonical;
          }
        }
        break;
      }
      case DiagCode::kRedundantGatePair: {
        // The fix-it names the gate; drop the first adjacent identical
        // pair (removal of a self-inverse pair is behaviour-preserving).
        const std::vector<Stmt>& stmts = body();
        for (std::size_t i = 0; i + 1 < stmts.size(); ++i) {
          if (!is_gate(stmts[i]) || !is_gate(stmts[i + 1])) continue;
          const auto& a = std::get<GateStmt>(stmts[i]);
          const auto& b = std::get<GateStmt>(stmts[i + 1]);
          if (a.name != b.name || a.operands.size() != b.operands.size()) {
            continue;
          }
          const bool same_operands = std::equal(
              a.operands.begin(), a.operands.end(), b.operands.begin(),
              [](const RegRef& x, const RegRef& y) {
                return x.index == y.index;
              });
          if (!same_operands) continue;
          std::vector<Stmt>& out = edit();
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(i),
                    out.begin() + static_cast<std::ptrdiff_t>(i + 2));
          break;
        }
        break;
      }
      case DiagCode::kDoubleMeasurement: {
        const std::vector<Stmt>& stmts = body();
        for (std::size_t i = 0; i + 1 < stmts.size(); ++i) {
          const auto* a = std::get_if<qasm::MeasureStmt>(&stmts[i]);
          const auto* b = std::get_if<qasm::MeasureStmt>(&stmts[i + 1]);
          if (a == nullptr || b == nullptr ||
              a->qubit.index != b->qubit.index) {
            continue;
          }
          std::vector<Stmt>& out = edit();
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(i + 1));
          break;
        }
        break;
      }
      case DiagCode::kUnreachableConditional:
        // Structural deletions are deferred until after this loop: they
        // shift statement indices, and the intent-restoring repairs above
        // address body by the fault record's stmt_index.
        ++drop_unreachable;
        break;
      case DiagCode::kRedundantReset:
        ++drop_redundant_reset;
        break;
      case DiagCode::kTrivialControlledGate:
        ++drop_trivial_control;
        break;
      default:
        break;
    }
  }

  // Proof-backed deletions, applied after the indexed repairs above so
  // those saw unshifted statement positions. Each deletes one statement
  // the abstract interpreter proved to be a no-op.
  const auto erase_at = [&](std::size_t i) {
    std::vector<Stmt>& out = edit();
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto delete_first_unreachable = [&]() -> bool {
    // First conditional whose clbit is tested true but never written
    // before it (the statement the fix-it span covers).
    const std::vector<Stmt>& stmts = body();
    std::vector<bool> written(ast.read().circuits.front().num_clbits, false);
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      if (const auto* m = std::get_if<qasm::MeasureStmt>(&stmts[i])) {
        if (m->clbit.index < written.size()) written[m->clbit.index] = true;
        continue;
      }
      if (std::holds_alternative<qasm::MeasureAllStmt>(stmts[i])) {
        written.assign(written.size(), true);
        continue;
      }
      const auto* cond = std::get_if<std::shared_ptr<qasm::IfStmt>>(&stmts[i]);
      if (cond == nullptr || *cond == nullptr) continue;
      const qasm::IfStmt& guard = **cond;
      if (guard.value && guard.clbit.index < written.size() &&
          !written[guard.clbit.index]) {
        erase_at(i);
        return true;
      }
    }
    return false;
  };
  const auto delete_first_redundant_reset = [&]() -> bool {
    // First reset on a qubit that nothing has touched yet.
    const std::vector<Stmt>& stmts = body();
    std::vector<bool> touched(ast.read().circuits.front().num_qubits, false);
    const auto touch = [&](const RegRef& ref) {
      if (ref.index < touched.size()) touched[ref.index] = true;
    };
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      if (const auto* r = std::get_if<qasm::ResetStmt>(&stmts[i])) {
        if (r->qubit.index < touched.size() && !touched[r->qubit.index]) {
          erase_at(i);
          return true;
        }
        touch(r->qubit);
      } else if (is_gate(stmts[i])) {
        for (const RegRef& ref : std::get<GateStmt>(stmts[i]).operands) {
          touch(ref);
        }
      } else if (const auto* m = std::get_if<qasm::MeasureStmt>(&stmts[i])) {
        touch(m->qubit);
      } else if (std::holds_alternative<qasm::MeasureAllStmt>(stmts[i])) {
        touched.assign(touched.size(), true);
      } else if (std::holds_alternative<std::shared_ptr<qasm::IfStmt>>(
                     stmts[i])) {
        // Conservative: a guarded statement may touch anything.
        touched.assign(touched.size(), true);
      }
    }
    return false;
  };
  const auto delete_first_trivial_control = [&]() -> bool {
    // First controlled gate whose control qubit is still in |0> —
    // untouched since preparation, so the gate is a provable identity.
    const std::vector<Stmt>& stmts = body();
    std::vector<bool> touched(ast.read().circuits.front().num_qubits, false);
    const auto touch = [&](const RegRef& ref) {
      if (ref.index < touched.size()) touched[ref.index] = true;
    };
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      if (is_gate(stmts[i])) {
        const auto& g = std::get<GateStmt>(stmts[i]);
        const auto kind = registry.resolve_gate(g.name);
        const bool controlled =
            kind.has_value() &&
            (*kind == sim::GateKind::kCX || *kind == sim::GateKind::kCY ||
             *kind == sim::GateKind::kCZ || *kind == sim::GateKind::kCSwap ||
             *kind == sim::GateKind::kCCX || *kind == sim::GateKind::kCPhase);
        if (controlled && !g.operands.empty() &&
            g.operands.front().index < touched.size() &&
            !touched[g.operands.front().index]) {
          erase_at(i);
          return true;
        }
        for (const RegRef& ref : g.operands) touch(ref);
      } else if (const auto* m = std::get_if<qasm::MeasureStmt>(&stmts[i])) {
        touch(m->qubit);
      } else if (const auto* r = std::get_if<qasm::ResetStmt>(&stmts[i])) {
        touch(r->qubit);
      } else if (std::holds_alternative<qasm::MeasureAllStmt>(stmts[i])) {
        touched.assign(touched.size(), true);
      } else if (std::holds_alternative<std::shared_ptr<qasm::IfStmt>>(
                     stmts[i])) {
        touched.assign(touched.size(), true);
      }
    }
    return false;
  };
  // A still-missing measurement can be the only reason the premise holds
  // ("clbit never written", "control untouched"): deleting the statement
  // now would bake the breakage in once the measurement is restored, so
  // hold the deletions until that fault class is gone.
  const bool measure_fix_pending = std::any_of(
      prev.faults.begin(), prev.faults.end(), [&](const Fault& f) {
        return f.kind == FaultKind::kMissingMeasure &&
               std::find(fixed.begin(), fixed.end(), f.kind) == fixed.end();
      });
  if (!measure_fix_pending) {
    for (int k = 0; k < drop_unreachable && delete_first_unreachable(); ++k) {
    }
    for (int k = 0;
         k < drop_redundant_reset && delete_first_redundant_reset(); ++k) {
    }
    for (int k = 0;
         k < drop_trivial_control && delete_first_trivial_control(); ++k) {
    }
  }
  (void)reprint_cleanly;  // re-print below always restores text integrity

  for (const Fault& f : prev.faults) {
    if (std::find(fixed.begin(), fixed.end(), f.kind) == fixed.end()) {
      remaining.push_back(f);
    } else if (f.kind == FaultKind::kParseCorruption && !reprint_cleanly) {
      remaining.push_back(f);
    }
  }
  next.faults = std::move(remaining);

  // Realise the repaired program. A parse corruption that was not fixed
  // re-applies itself (the model reproduces its own malformed line).
  next.ast = ast.share();
  next.source = print_source(*next.ast, context.gold.get());
  const bool parse_fault_remains = std::any_of(
      next.faults.begin(), next.faults.end(), [](const Fault& f) {
        return f.kind == FaultKind::kParseCorruption;
      });
  if (parse_fault_remains) {
    std::vector<std::size_t> spots;
    for (std::size_t i = 0; i < next.source.size(); ++i) {
      if (next.source[i] == ';') spots.push_back(i);
    }
    if (!spots.empty()) {
      next.source.erase(
          spots[rng_.uniform_int(static_cast<std::uint64_t>(spots.size()))],
          1);
    }
  }
  return next;
}

}  // namespace qcgen::llm
