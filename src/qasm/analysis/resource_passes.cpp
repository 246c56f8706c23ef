// Lint passes over the static resource lattice (resources.hpp).
//
// resource.qubit-reuse is the proof-gated one: its fix-it remaps a
// late-allocated qubit onto an already-released ancilla, shrinking the
// live register demand by one. The rewrite claims semantic preservation
// (fixit_claims_preservation), so the verify engine must certify it
// proved-equal before it may land — the pass constructs the fix-it only
// under conditions where the proof should go through (release is a
// certain unguarded reset, the reused qubit starts dead, no measure_all
// whose bit order the remap would permute), and the certifier has the
// final word.

#include <algorithm>
#include <optional>
#include <string>

#include "qasm/analysis/resources.hpp"
#include "qasm/lint/registry.hpp"
#include "qasm/printer.hpp"

namespace qcgen::qasm::lint {

namespace {

using analysis::CircuitResources;
using analysis::QubitLifetime;

constexpr std::size_t kMaxPerCircuit = 16;

/// Reported idle stretches must be at least this many layers and at
/// least half the circuit depth (short gaps are scheduling noise).
constexpr std::size_t kMinIdleGap = 4;

/// depth-dominating-layer thresholds: a run of >= kMinSerialRun
/// consecutive width-1 layers covering >= half of a depth >=
/// kMinSerialDepth schedule. Tuned so the gold templates (GHZ ladders
/// included) stay quiet while genuinely serial hotspots fire.
constexpr std::size_t kMinSerialRun = 10;
constexpr std::size_t kMinSerialDepth = 14;

std::string qubit_ref(const CircuitDecl& circ, std::size_t q) {
  return concat({circ.qreg_name, "[", std::to_string(q), "]"});
}

/// The per-circuit resource lattice, or nullptr when not computed.
const CircuitResources* computed_resources(const PassContext& ctx,
                                           std::size_t circuit_index) {
  if (ctx.resources == nullptr) return nullptr;
  if (circuit_index >= ctx.resources->circuits.size()) return nullptr;
  const CircuitResources& res = ctx.resources->circuits[circuit_index];
  return res.computed ? &res : nullptr;
}

/// Copy of `stmt` with every reference to qubit `from` of register
/// `qreg` redirected to qubit `to`. Only non-if statements are handled
/// (flat ops are innermost statements by construction).
Stmt remap_qubit(const Stmt& stmt, const std::string& qreg, std::size_t from,
                 std::size_t to) {
  Stmt out = stmt;
  const auto remap_ref = [&](RegRef& ref) {
    if (ref.reg == qreg && ref.index == from) ref.index = to;
  };
  if (auto* gate = std::get_if<GateStmt>(&out)) {
    for (RegRef& ref : gate->operands) remap_ref(ref);
  } else if (auto* measure = std::get_if<MeasureStmt>(&out)) {
    remap_ref(measure->qubit);
  } else if (auto* reset = std::get_if<ResetStmt>(&out)) {
    remap_ref(reset->qubit);
  }
  return out;
}

/// resource.qubit-reuse: qubit `dead` is first touched only after
/// ancilla `released` has been reset back to |0>, so the program fits
/// in one fewer live qubit — remap every use of `dead` onto `released`.
/// The fix-it rewrites the line span [first use, last use] of `dead`;
/// it is only constructed when every line in that span holds exactly
/// one unguarded op (canonical one-statement-per-line layout), so the
/// reprint is a faithful remap of the original statements.
class QubitReusePass final : public LintPass {
 public:
  std::string_view id() const override { return "resource.qubit-reuse"; }
  std::string_view description() const override {
    return "late-allocated qubits that could reuse a released ancilla";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitResources* res = computed_resources(ctx, ci);
      if (res == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      // A remap permutes the implicit qubit -> clbit assignment of
      // measure_all, so circuits using it are off limits.
      const bool has_measure_all =
          std::any_of(facts.ops.begin(), facts.ops.end(), [](const FlatOp& op) {
            return std::holds_alternative<MeasureAllStmt>(*op.stmt);
          });
      if (has_measure_all) continue;
      std::size_t reported = 0;
      for (std::size_t r = 0;
           r < res->qubits.size() && reported < kMaxPerCircuit; ++r) {
        const QubitLifetime& released = res->qubits[r];
        if (released.role != QubitLifetime::Role::kAncillaReleased) continue;
        for (std::size_t d = 0; d < res->qubits.size(); ++d) {
          const QubitLifetime& dead = res->qubits[d];
          if (!dead.used || d == r) continue;
          if (dead.first_op <= released.release_op) continue;
          sink.report(
              Severity::kWarning, DiagCode::kQubitReuse,
              qubit_ref(circ, d) + " is first used only after ancilla " +
                  qubit_ref(circ, r) + " is released (reset at line " +
                  std::to_string(facts.ops[released.release_op].line) +
                  "); remapping it onto " + qubit_ref(circ, r) +
                  " frees one qubit",
              facts.ops[dead.first_op].line,
              build_fixit(facts, circ, *res, d, r));
          ++reported;
          break;  // one reuse partner per released ancilla
        }
      }
    }
  }

 private:
  static std::optional<FixIt> build_fixit(const CircuitFacts& facts,
                                          const CircuitDecl& circ,
                                          const CircuitResources& res,
                                          std::size_t dead,
                                          std::size_t released) {
    const int first = facts.ops[res.qubits[dead].first_op].line;
    const int last = facts.ops[res.qubits[dead].last_op].line;
    if (first <= 0 || last < first) return std::nullopt;
    // Map each line of the span to its single unguarded op.
    std::vector<const Stmt*> line_stmt(static_cast<std::size_t>(last - first) +
                                       1);
    for (const FlatOp& op : facts.ops) {
      if (op.line < first || op.line > last) continue;
      if (op.guarded()) return std::nullopt;
      auto& slot = line_stmt[static_cast<std::size_t>(op.line - first)];
      if (slot != nullptr) return std::nullopt;  // two ops on one line
      slot = op.stmt;
    }
    std::string replacement;
    for (const Stmt* stmt : line_stmt) {
      if (stmt == nullptr) return std::nullopt;  // non-statement line
      replacement +=
          print_stmt(remap_qubit(*stmt, circ.qreg_name, dead, released), 1);
    }
    return FixIt{first, last, std::move(replacement),
                 circ.qreg_name + "[" + std::to_string(dead) + "]"};
  }
};

/// resource.idle-qubit-hotspot: a qubit sits idle for a stretch of
/// layers comparable to the whole schedule — decoherence exposure that
/// rescheduling (or delayed allocation) would avoid.
class IdleQubitHotspotPass final : public LintPass {
 public:
  std::string_view id() const override {
    return "resource.idle-qubit-hotspot";
  }
  std::string_view description() const override {
    return "qubits idle for a large fraction of the schedule";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitResources* res = computed_resources(ctx, ci);
      if (res == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t q = 0;
           q < res->qubits.size() && reported < kMaxPerCircuit; ++q) {
        const QubitLifetime& life = res->qubits[q];
        if (!life.used || life.max_idle_gap < kMinIdleGap) continue;
        if (life.max_idle_gap * 2 < res->depth.max) continue;
        sink.report(Severity::kWarning, DiagCode::kIdleQubitHotspot,
                    concat({qubit_ref(circ, q), " is idle for ",
                            std::to_string(life.max_idle_gap), " of the ",
                            std::to_string(res->depth.max),
                            " circuit layers between two uses; idle qubits "
                            "accumulate decoherence without doing work"}),
                    facts.ops[life.first_op].line);
        ++reported;
      }
    }
  }
};

/// resource.uncomputed-ancilla: a scratch qubit is entangled into the
/// computation but neither measured nor uncomputed back to |0>; its
/// stray entanglement decoheres the data qubits it touched.
class UncomputedAncillaPass final : public LintPass {
 public:
  std::string_view id() const override {
    return "resource.uncomputed-ancilla";
  }
  std::string_view description() const override {
    return "scratch qubits never measured or reset back to |0>";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitResources* res = computed_resources(ctx, ci);
      if (res == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      if (!facts.has_measurement) continue;  // output convention unknown
      const CircuitDecl& circ = *facts.circuit;
      std::size_t reported = 0;
      for (std::size_t q = 0;
           q < res->qubits.size() && reported < kMaxPerCircuit; ++q) {
        const QubitLifetime& life = res->qubits[q];
        if (life.role != QubitLifetime::Role::kAncillaDirty) continue;
        // Only flag qubits that interact with the rest of the circuit:
        // a lone-qubit scratch register cannot decohere anything else.
        const bool entangled = std::any_of(
            res->two_qubit_pairs.begin(), res->two_qubit_pairs.end(),
            [&](const analysis::TwoQubitPair& pair) {
              return pair.a == q || pair.b == q;
            });
        if (!entangled) continue;
        sink.report(Severity::kWarning, DiagCode::kUncomputedAncilla,
                    concat({"ancilla ", qubit_ref(circ, q),
                            " is entangled with the circuit but never "
                            "measured or uncomputed; reset it (or uncompute "
                            "it) before the final measurement"}),
                    facts.ops[life.last_op].line);
        ++reported;
      }
    }
  }
};

/// resource.depth-dominating-layer: a long run of width-1 layers means
/// the schedule is serialised on a single dependency chain; the rest of
/// the register idles while it runs.
class DepthDominatingLayerPass final : public LintPass {
 public:
  std::string_view id() const override {
    return "resource.depth-dominating-layer";
  }
  std::string_view description() const override {
    return "serial dependency chains dominating the schedule";
  }

  void run(const PassContext& ctx, DiagnosticSink& sink) const override {
    for (std::size_t ci = 0; ci < ctx.facts.circuits.size(); ++ci) {
      const CircuitResources* res = computed_resources(ctx, ci);
      if (res == nullptr) continue;
      const CircuitFacts& facts = ctx.facts.circuits[ci];
      const CircuitDecl& circ = *facts.circuit;
      if (circ.num_qubits < 2) continue;  // width 1 is the only option
      const std::size_t depth = res->depth.max;
      if (depth < kMinSerialDepth) continue;
      // Longest run of consecutive width-1 layers.
      std::size_t best_len = 0;
      std::size_t best_begin = 0;
      std::size_t run = 0;
      for (std::size_t layer = 1; layer <= depth; ++layer) {
        if (res->layer_width[layer] == 1) {
          ++run;
          if (run > best_len) {
            best_len = run;
            best_begin = layer + 1 - run;
          }
        } else {
          run = 0;
        }
      }
      if (best_len < kMinSerialRun || best_len * 2 < depth) continue;
      // Anchor the report on the first op of the run's first layer.
      int line = 0;
      for (std::size_t i = 0; i < res->ops.size() && line == 0; ++i) {
        if (res->ops[i].asap_layer == best_begin) line = facts.ops[i].line;
      }
      sink.report(Severity::kWarning, DiagCode::kDepthDominatingLayer,
                  "layers " + std::to_string(best_begin) + "-" +
                      std::to_string(best_begin + best_len - 1) + " of " +
                      std::to_string(depth) +
                      " run a single serial dependency chain; " +
                      std::to_string(circ.num_qubits - 1) +
                      " other qubit(s) idle while it executes",
                  line);
    }
  }
};

}  // namespace

void register_resource_passes(PassRegistry& registry) {
  registry.add(std::make_unique<QubitReusePass>())
      .add(std::make_unique<IdleQubitHotspotPass>())
      .add(std::make_unique<UncomputedAncillaPass>())
      .add(std::make_unique<DepthDominatingLayerPass>());
}

}  // namespace qcgen::qasm::lint
