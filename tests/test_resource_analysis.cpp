// Tests for the static resource-analysis engine (qasm/analysis) and the
// resource.* lint passes it feeds:
//  - an exact-enumeration cross-check: an independent AST walker mirrors
//    the documented scheduling semantics (resources.hpp) and must agree
//    with the engine on every gold template's counts, depth and T-depth;
//  - conditional cost ranges with and without abstract-interpreter
//    reachability refinement;
//  - lifetimes, roles, ALAP slack, and positive/negative cases for each
//    resource.* pass;
//  - the proof gate: every landed resource.qubit-reuse fix-it must carry
//    a proved-equal certificate (zero uncertified mutations), and
//    proved-equal rewrites leave the resource counts consistent.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "llm/tasks.hpp"
#include "llm/templates.hpp"
#include "qasm/analysis/resources.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/builder.hpp"
#include "qasm/lint/abstract/interpreter.hpp"
#include "qasm/lint/facts.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qasm/verify/certify.hpp"
#include "sim/statevector.hpp"

namespace qcgen::qasm {
namespace {

using analysis::CircuitResources;
using analysis::QubitLifetime;
using analysis::ResourceFacts;
using analysis::ResourceSummary;

Program parse_ok(const std::string& source) {
  ParseResult parsed = parse(source);
  EXPECT_TRUE(parsed.ok()) << format_error_trace(parsed.diagnostics);
  return *parsed.program;
}

/// Engine output for the entry circuit of `source`, no abstract facts.
CircuitResources entry_resources(const std::string& source) {
  const Program program = parse_ok(source);
  const lint::ProgramFacts facts = lint::ProgramFacts::compute(program);
  const ResourceFacts resources = ResourceFacts::compute(facts);
  for (std::size_t ci = 0; ci < facts.circuits.size(); ++ci) {
    if (facts.circuits[ci].circuit == program.entry()) {
      return resources.circuits[ci];
    }
  }
  return {};
}

AnalysisReport analyze_source(const std::string& source,
                              const AnalyzerOptions& options = {}) {
  const ParseResult parsed = parse(source);
  EXPECT_TRUE(parsed.ok()) << format_error_trace(parsed.diagnostics);
  return analyze(*parsed.program, LanguageRegistry::current(), options);
}

bool has_code(const AnalysisReport& report, DiagCode code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* find_code(const AnalysisReport& report, DiagCode code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Independent exact-enumeration mirror of the scheduling semantics
// ---------------------------------------------------------------------

/// Re-derives every summary quantity by walking the raw AST with its own
/// level clocks — deliberately sharing no code with the engine beyond
/// the gate-metadata tables, so a scheduling regression cannot cancel
/// out of the comparison.
struct MirrorCounts {
  std::size_t gates = 0;
  std::size_t t = 0;
  std::size_t ccx = 0;
  std::size_t rotations = 0;
  std::size_t two_qubit = 0;
  std::size_t non_clifford = 0;
  std::size_t measures = 0;
  std::size_t resets = 0;
  std::size_t depth = 0;
  std::size_t t_depth = 0;
  std::vector<bool> used;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> pairs;
};

class MirrorWalker {
 public:
  explicit MirrorWalker(const CircuitDecl& circ)
      : circ_(circ),
        qubit_level_(circ.num_qubits, 0),
        clbit_level_(circ.num_clbits, 0),
        t_level_(circ.num_qubits, 0) {
    out_.used.assign(circ.num_qubits, false);
  }

  MirrorCounts walk() {
    for (const Stmt& stmt : circ_.body) visit(stmt, {});
    return out_;
  }

 private:
  void visit(const Stmt& stmt, std::vector<std::size_t> guards) {
    if (const auto* iff = std::get_if<std::shared_ptr<IfStmt>>(&stmt)) {
      if ((*iff)->clbit.index < circ_.num_clbits) {
        guards.push_back((*iff)->clbit.index);
      }
      visit((*iff)->body, std::move(guards));
      return;
    }
    if (std::holds_alternative<BarrierStmt>(stmt)) {
      std::size_t sync = 0;
      std::size_t t_sync = 0;
      for (std::size_t q = 0; q < circ_.num_qubits; ++q) {
        sync = std::max(sync, qubit_level_[q]);
        t_sync = std::max(t_sync, t_level_[q]);
      }
      std::fill(qubit_level_.begin(), qubit_level_.end(), sync);
      std::fill(t_level_.begin(), t_level_.end(), t_sync);
      return;
    }
    if (std::holds_alternative<MeasureAllStmt>(stmt)) {
      if (circ_.num_clbits < circ_.num_qubits) return;  // ineffective
      std::size_t ready = 0;
      for (std::size_t q = 0; q < circ_.num_qubits; ++q) {
        ready = std::max(ready, qubit_level_[q]);
      }
      for (const std::size_t c : guards) {
        ready = std::max(ready, clbit_level_[c]);
      }
      const std::size_t layer = ready + 1;
      out_.depth = std::max(out_.depth, layer);
      out_.measures += circ_.num_qubits;
      for (std::size_t q = 0; q < circ_.num_qubits; ++q) {
        qubit_level_[q] = layer;
        clbit_level_[q] = layer;
        out_.used[q] = true;
      }
      return;
    }
    if (const auto* gate = std::get_if<GateStmt>(&stmt)) {
      ++out_.gates;
      const auto kind = LanguageRegistry::current().resolve_gate(gate->name);
      std::vector<std::size_t> qs;
      for (const RegRef& ref : gate->operands) {
        if (ref.index < circ_.num_qubits) qs.push_back(ref.index);
      }
      std::sort(qs.begin(), qs.end());
      qs.erase(std::unique(qs.begin(), qs.end()), qs.end());
      bool is_t = false;
      if (kind) {
        const sim::GateInfo& info = sim::gate_info(*kind);
        is_t = *kind == sim::GateKind::kT || *kind == sim::GateKind::kTdg;
        if (is_t) ++out_.t;
        if (*kind == sim::GateKind::kCCX) ++out_.ccx;
        if (!info.clifford) {
          ++out_.non_clifford;
          if (info.num_params > 0) ++out_.rotations;
        }
        if (info.num_qubits == 2) {
          ++out_.two_qubit;
          if (qs.size() == 2) ++out_.pairs[{qs.front(), qs.back()}];
        }
      }
      schedule(qs, guards, is_t, /*writes_clbit=*/std::nullopt);
      return;
    }
    if (const auto* measure = std::get_if<MeasureStmt>(&stmt)) {
      if (measure->qubit.index >= circ_.num_qubits) return;
      ++out_.measures;
      schedule({measure->qubit.index}, guards, false,
               measure->clbit.index < circ_.num_clbits
                   ? std::optional<std::size_t>(measure->clbit.index)
                   : std::nullopt);
      return;
    }
    if (const auto* reset = std::get_if<ResetStmt>(&stmt)) {
      if (reset->qubit.index >= circ_.num_qubits) return;
      ++out_.resets;
      schedule({reset->qubit.index}, guards, false, std::nullopt);
      return;
    }
  }

  void schedule(const std::vector<std::size_t>& qs,
                const std::vector<std::size_t>& guards, bool is_t,
                std::optional<std::size_t> writes_clbit) {
    if (qs.empty()) return;
    std::size_t ready = 0;
    std::size_t t_in = 0;
    for (const std::size_t q : qs) {
      ready = std::max(ready, qubit_level_[q]);
      t_in = std::max(t_in, t_level_[q]);
      out_.used[q] = true;
    }
    for (const std::size_t c : guards) {
      ready = std::max(ready, clbit_level_[c]);
    }
    const std::size_t layer = ready + 1;
    const std::size_t t_out = t_in + (is_t ? 1 : 0);
    out_.depth = std::max(out_.depth, layer);
    out_.t_depth = std::max(out_.t_depth, t_out);
    for (const std::size_t q : qs) {
      qubit_level_[q] = layer;
      t_level_[q] = t_out;
    }
    if (writes_clbit) clbit_level_[*writes_clbit] = layer;
  }

  const CircuitDecl& circ_;
  std::vector<std::size_t> qubit_level_;
  std::vector<std::size_t> clbit_level_;
  std::vector<std::size_t> t_level_;
  MirrorCounts out_;
};

TEST(ResourceCrossCheck, EveryGoldTemplateMatchesExactEnumeration) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    const Program program = llm::gold_program(task);
    const CircuitDecl* entry = program.entry();
    ASSERT_NE(entry, nullptr);
    const MirrorCounts mirror = MirrorWalker(*entry).walk();
    const ResourceSummary engine = analysis::summarize_entry(program);
    const std::string name(llm::algorithm_name(id));
    ASSERT_TRUE(engine.computed) << name;
    EXPECT_EQ(engine.gate_count, mirror.gates) << name;
    EXPECT_EQ(engine.t_count, mirror.t) << name;
    EXPECT_EQ(engine.ccx_count, mirror.ccx) << name;
    EXPECT_EQ(engine.rotation_count, mirror.rotations) << name;
    EXPECT_EQ(engine.two_qubit_count, mirror.two_qubit) << name;
    EXPECT_EQ(engine.non_clifford_count, mirror.non_clifford) << name;
    EXPECT_EQ(engine.measure_count, mirror.measures) << name;
    EXPECT_EQ(engine.depth, mirror.depth) << name;
    EXPECT_EQ(engine.t_depth, mirror.t_depth) << name;
    EXPECT_LE(engine.t_depth, engine.depth) << name;
    EXPECT_EQ(engine.qubits_used,
              static_cast<std::size_t>(std::count(mirror.used.begin(),
                                                  mirror.used.end(), true)))
        << name;
    ASSERT_EQ(engine.two_qubit_pairs.size(), mirror.pairs.size()) << name;
    for (const analysis::TwoQubitPair& pair : engine.two_qubit_pairs) {
      const auto it = mirror.pairs.find({pair.a, pair.b});
      ASSERT_NE(it, mirror.pairs.end()) << name;
      EXPECT_EQ(pair.count, it->second) << name;
    }
  }
}

// ---------------------------------------------------------------------
// Engine unit tests
// ---------------------------------------------------------------------

TEST(ResourceEngine, UnconditionalCountsAreExact) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 2, c: 2) {
  h q[0];
  t q[0];
  cx q[0], q[1];
  tdg q[1];
  measure q[0] -> c[0];
  measure q[1] -> c[1];
}
)");
  ASSERT_TRUE(res.computed);
  EXPECT_EQ(res.t_count, (analysis::CostRange{2, 2}));
  EXPECT_EQ(res.two_qubit_count, (analysis::CostRange{1, 1}));
  EXPECT_EQ(res.gate_count, (analysis::CostRange{4, 4}));
  EXPECT_EQ(res.measure_count, (analysis::CostRange{2, 2}));
  // h,t serial on q0; cx joins both; tdg and the measures follow.
  EXPECT_EQ(res.depth, (analysis::CostRange{5, 5}));
  // t (layer 2) and tdg (after the cx) sit on one T-chain of length 2.
  EXPECT_EQ(res.t_depth, (analysis::CostRange{2, 2}));
  EXPECT_EQ(res.histogram.at("t").max + res.histogram.at("tdg").max, 2u);
  ASSERT_EQ(res.two_qubit_pairs.size(), 1u);
  EXPECT_EQ(res.two_qubit_pairs[0], (analysis::TwoQubitPair{0, 1, 1}));
}

TEST(ResourceEngine, GuardedOpsCountOnlyInUpperBound) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 1, c: 1) {
  h q[0];
  measure q[0] -> c[0];
  if (c[0] == 1) t q[0];
}
)");
  ASSERT_TRUE(res.computed);
  EXPECT_EQ(res.t_count, (analysis::CostRange{0, 1}));
  EXPECT_EQ(res.depth.min, 2u);
  EXPECT_EQ(res.depth.max, 3u);  // classical edge serialises the t
  EXPECT_EQ(res.t_depth, (analysis::CostRange{0, 1}));
}

TEST(ResourceEngine, AbstractReachabilityRefinesTheRange) {
  // c[0] is measured from |0>, so the abstract interpreter proves the
  // guard false: the t is excluded from both bounds.
  const Program program = parse_ok(R"(import qiskit;
circuit main(q: 1, c: 1) {
  measure q[0] -> c[0];
  if (c[0] == 1) t q[0];
}
)");
  const lint::ProgramFacts facts = lint::ProgramFacts::compute(program);
  const lint::abstract::AbstractFacts abstract =
      lint::abstract::AbstractFacts::compute(facts);
  const ResourceFacts with = ResourceFacts::compute(facts, &abstract);
  const ResourceFacts without = ResourceFacts::compute(facts);
  ASSERT_FALSE(with.circuits.empty());
  EXPECT_EQ(with.circuits[0].t_count, (analysis::CostRange{0, 0}));
  EXPECT_EQ(without.circuits[0].t_count, (analysis::CostRange{0, 1}));
}

TEST(ResourceEngine, BarrierSynchronisesWithoutCounting) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 2, c: 2) {
  h q[0];
  h q[0];
  barrier;
  h q[1];
  measure_all;
}
)");
  ASSERT_TRUE(res.computed);
  // Barrier lifts q[1]'s clock to q[0]'s: h q[1] lands on layer 3.
  EXPECT_EQ(res.depth, (analysis::CostRange{4, 4}));
  EXPECT_EQ(res.total_ops, (analysis::CostRange{4, 4}));  // no barrier
  EXPECT_EQ(res.measure_count, (analysis::CostRange{2, 2}));
}

TEST(ResourceEngine, IneffectiveMeasureAllIsANoOp) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 2, c: 1) {
  h q[0];
  measure_all;
}
)");
  ASSERT_TRUE(res.computed);
  EXPECT_EQ(res.measure_count, (analysis::CostRange{0, 0}));
  EXPECT_EQ(res.depth, (analysis::CostRange{1, 1}));
}

TEST(ResourceEngine, LifetimeRolesAndIdleGaps) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 4, c: 1) {
  h q[0];
  cx q[0], q[1];
  h q[1];
  reset q[1];
  h q[2];
  t q[2];
  t q[2];
  t q[2];
  t q[2];
  cx q[2], q[0];
  measure q[0] -> c[0];
}
)");
  ASSERT_TRUE(res.computed);
  ASSERT_EQ(res.qubits.size(), 4u);
  EXPECT_EQ(res.qubits[0].role, QubitLifetime::Role::kData);
  EXPECT_EQ(res.qubits[1].role, QubitLifetime::Role::kAncillaReleased);
  EXPECT_TRUE(res.qubits[1].released);
  EXPECT_EQ(res.qubits[2].role, QubitLifetime::Role::kAncillaDirty);
  EXPECT_EQ(res.qubits[3].role, QubitLifetime::Role::kUnused);
  EXPECT_EQ(res.qubits_used, 3u);
  // q[0]: h (layer 1), cx (2), then idle until cx q[2],q[0] at layer 6.
  EXPECT_EQ(res.qubits[0].max_idle_gap, 3u);
}

TEST(ResourceEngine, AlapNeverPrecedesAsapAndCriticalPathHasZeroSlack) {
  const CircuitResources res = entry_resources(R"(import qiskit;
circuit main(q: 3, c: 3) {
  h q[0];
  cx q[0], q[1];
  cx q[1], q[2];
  h q[2];
  measure q[2] -> c[2];
}
)");
  ASSERT_TRUE(res.computed);
  bool saw_zero_slack = false;
  for (const analysis::OpResource& op : res.ops) {
    if (op.asap_layer == 0) continue;
    EXPECT_GE(op.alap_layer, op.asap_layer);
    if (op.slack() == 0) saw_zero_slack = true;
  }
  EXPECT_TRUE(saw_zero_slack);
  // Every layer of the upper-bound schedule hosts at least one op.
  for (std::size_t layer = 1; layer < res.layer_width.size(); ++layer) {
    EXPECT_GE(res.layer_width[layer], 1u) << "empty layer " << layer;
  }
}

// ---------------------------------------------------------------------
// resource.* passes: positive and negative cases
// ---------------------------------------------------------------------

const char* const kReusableAncillaSource = R"(import qiskit;
circuit main(q: 3, c: 2) {
  h q[1];
  cx q[1], q[0];
  cx q[1], q[0];
  h q[1];
  reset q[1];
  h q[2];
  measure q[0] -> c[0];
  measure q[2] -> c[1];
}
)";

TEST(ResourcePasses, QubitReuseFiresWithFixit) {
  const AnalysisReport report = analyze_source(kReusableAncillaSource);
  const Diagnostic* diag = find_code(report, DiagCode::kQubitReuse);
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->severity, Severity::kWarning);
  ASSERT_TRUE(diag->fixit.has_value());
  EXPECT_NE(diag->message.find("q[2]"), std::string::npos);
  EXPECT_NE(diag->message.find("q[1]"), std::string::npos);
}

TEST(ResourcePasses, QubitReuseSkipsMeasureAllCircuits) {
  // Same shape, but the output convention is measure_all's implicit
  // qubit -> clbit map, which a remap would permute.
  const AnalysisReport report = analyze_source(R"(import qiskit;
circuit main(q: 3, c: 3) {
  h q[1];
  cx q[1], q[0];
  cx q[1], q[0];
  h q[1];
  reset q[1];
  h q[2];
  measure_all;
}
)");
  EXPECT_FALSE(has_code(report, DiagCode::kQubitReuse));
}

TEST(ResourcePasses, QubitReuseIgnoresGuardedResets) {
  const AnalysisReport report = analyze_source(R"(import qiskit;
circuit main(q: 3, c: 2) {
  h q[1];
  measure q[1] -> c[0];
  if (c[0] == 1) reset q[1];
  h q[2];
  measure q[2] -> c[1];
}
)");
  EXPECT_FALSE(has_code(report, DiagCode::kQubitReuse));
}

TEST(ResourcePasses, QubitReuseCertifiedRoundTrip) {
  const std::string source = kReusableAncillaSource;
  const AnalysisReport report = analyze_source(source);
  ASSERT_TRUE(has_code(report, DiagCode::kQubitReuse));

  // Certify only the reuse fix-it: the injected identity pairs also
  // draw dataflow fix-its, whose removals would change the gate counts
  // this test pins down.
  std::vector<Diagnostic> reuse_diags;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == DiagCode::kQubitReuse) reuse_diags.push_back(d);
  }
  const verify::CertifiedFixIts certified =
      verify::certify_and_apply_fixits(source, reuse_diags);
  bool saw_reuse = false;
  for (const verify::FixItCertification& record : certified.records) {
    if (record.code != DiagCode::kQubitReuse) continue;
    saw_reuse = true;
    // The landing gate: a qubit-reuse fix-it may only apply with a
    // proved-equal certificate — never as an uncertified mutation.
    EXPECT_TRUE(record.applied) << record.detail;
    EXPECT_TRUE(record.certificate.proved_equal()) << record.detail;
  }
  ASSERT_TRUE(saw_reuse);

  // The patch really remapped: q[2] is gone, behaviour is preserved.
  EXPECT_EQ(certified.source.find("q[2]"), std::string::npos)
      << certified.source;
  const Program before = parse_ok(source);
  const Program after = parse_ok(certified.source);
  const double tvd = total_variation_distance(
      sim::exact_distribution(build_circuit(before)),
      sim::exact_distribution(build_circuit(after)));
  EXPECT_NEAR(tvd, 0.0, 1e-12);

  // Re-analysis of the patched source no longer reports the reuse.
  EXPECT_FALSE(has_code(analyze_source(certified.source),
                        DiagCode::kQubitReuse));

  // Proved-equal remap leaves every gate-class count untouched (it only
  // renames a wire).
  const ResourceSummary pre = analysis::summarize_entry(before);
  const ResourceSummary post = analysis::summarize_entry(after);
  EXPECT_EQ(post.gate_count, pre.gate_count);
  EXPECT_EQ(post.t_count, pre.t_count);
  EXPECT_EQ(post.two_qubit_count, pre.two_qubit_count);
  EXPECT_EQ(post.measure_count, pre.measure_count);
  EXPECT_EQ(post.qubits_used, pre.qubits_used - 1);
}

TEST(ResourcePasses, IdleQubitHotspotPositiveAndNegative) {
  const AnalysisReport hot = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 2) {
  h q[0];
  cx q[0], q[1];
  t q[1];
  t q[1];
  t q[1];
  t q[1];
  t q[1];
  t q[1];
  t q[1];
  t q[1];
  cx q[0], q[1];
  measure q[0] -> c[0];
}
)");
  const Diagnostic* diag = find_code(hot, DiagCode::kIdleQubitHotspot);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(diag->message.find("q[0]"), std::string::npos);

  const AnalysisReport cold = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 2) {
  h q[0];
  cx q[0], q[1];
  t q[1];
  cx q[0], q[1];
  measure q[0] -> c[0];
}
)");
  EXPECT_FALSE(has_code(cold, DiagCode::kIdleQubitHotspot));
}

TEST(ResourcePasses, UncomputedAncillaPositiveAndNegative) {
  const AnalysisReport dirty = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 1) {
  h q[0];
  cx q[0], q[1];
  measure q[0] -> c[0];
}
)");
  EXPECT_TRUE(has_code(dirty, DiagCode::kUncomputedAncilla));

  // Released (reset) ancilla: clean.
  const AnalysisReport released = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 1) {
  h q[0];
  cx q[0], q[1];
  reset q[1];
  measure q[0] -> c[0];
}
)");
  EXPECT_FALSE(has_code(released, DiagCode::kUncomputedAncilla));

  // No measurement anywhere: output convention unknown, stay quiet.
  const AnalysisReport unmeasured = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 1) {
  h q[0];
  cx q[0], q[1];
}
)");
  EXPECT_FALSE(has_code(unmeasured, DiagCode::kUncomputedAncilla));

  // Never entangled: a lone dirty scratch qubit is not flagged.
  const AnalysisReport lone = analyze_source(R"(import qiskit;
circuit main(q: 2, c: 1) {
  h q[0];
  h q[1];
  measure q[0] -> c[0];
}
)");
  EXPECT_FALSE(has_code(lone, DiagCode::kUncomputedAncilla));
}

TEST(ResourcePasses, DepthDominatingLayerPositiveAndNegative) {
  std::string serial = "import qiskit;\ncircuit main(q: 2, c: 2) {\n";
  for (int i = 0; i < 16; ++i) serial += "  t q[0];\n";
  serial += "  cx q[0], q[1];\n  measure q[0] -> c[0];\n}\n";
  const AnalysisReport report = analyze_source(serial);
  EXPECT_TRUE(has_code(report, DiagCode::kDepthDominatingLayer));

  std::string shallow = "import qiskit;\ncircuit main(q: 2, c: 2) {\n";
  for (int i = 0; i < 8; ++i) shallow += "  t q[0];\n";
  shallow += "  cx q[0], q[1];\n  measure q[0] -> c[0];\n}\n";
  EXPECT_FALSE(
      has_code(analyze_source(shallow), DiagCode::kDepthDominatingLayer));
}

TEST(ResourcePasses, DisabledByAnalyzerOption) {
  AnalyzerOptions options;
  options.resource_lints = false;
  const AnalysisReport report =
      analyze_source(kReusableAncillaSource, options);
  EXPECT_FALSE(has_code(report, DiagCode::kQubitReuse));
  EXPECT_FALSE(has_code(report, DiagCode::kIdleQubitHotspot));
  EXPECT_FALSE(has_code(report, DiagCode::kUncomputedAncilla));
  EXPECT_FALSE(has_code(report, DiagCode::kDepthDominatingLayer));
}

// ---------------------------------------------------------------------
// Fuzz extension: proved-equal rewrites vs. the resource lattice
// ---------------------------------------------------------------------

/// Inserts `lines` right after the circuit-opening "{" line.
std::string inject_after_open_brace(const std::string& source,
                                    const std::vector<std::string>& lines) {
  std::string out;
  bool injected = false;
  std::size_t start = 0;
  while (start <= source.size()) {
    const std::size_t end = source.find('\n', start);
    const std::string line = source.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    out += line;
    out += '\n';
    if (!injected && line.find('{') != std::string::npos) {
      injected = true;
      for (const std::string& extra : lines) {
        out += extra;
        out += '\n';
      }
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

TEST(ResourceFuzz, CertifiedRewritesKeepTheLatticeConsistent) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    const std::string gold = print_program(llm::gold_program(task));
    const std::string source = inject_after_open_brace(
        gold, {"  h q[0];", "  h q[0];", "  s q[0];", "  sdg q[0];"});
    const ParseResult parsed = parse(source);
    ASSERT_TRUE(parsed.ok()) << llm::algorithm_name(id);
    const AnalysisReport report = analyze(*parsed.program);
    const verify::CertifiedFixIts certified =
        verify::certify_and_apply_fixits(source, report.diagnostics);
    const std::string name(llm::algorithm_name(id));

    // Zero uncertified mutations: every applied preservation-claiming
    // fix-it carries a proved-equal certificate.
    for (const verify::FixItCertification& record : certified.records) {
      if (!verify::fixit_claims_preservation(record.code)) continue;
      if (!record.applied) continue;
      EXPECT_TRUE(record.certificate.proved_equal())
          << name << ": " << diag_code_name(record.code) << " applied "
          << "without a proof (" << record.detail << ")";
    }

    // The patched program's resource lattice stays consistent with the
    // proved-equal contract: gate work and depth never grow, and the
    // measurement interface (qubit count, measure sites) is untouched.
    const ParseResult patched = parse(certified.source);
    ASSERT_TRUE(patched.ok()) << name;
    const ResourceSummary before =
        analysis::summarize_entry(*parsed.program);
    const ResourceSummary after =
        analysis::summarize_entry(*patched.program);
    ASSERT_TRUE(before.computed) << name;
    ASSERT_TRUE(after.computed) << name;
    EXPECT_LE(after.gate_count, before.gate_count) << name;
    EXPECT_LE(after.depth, before.depth) << name;
    EXPECT_EQ(after.qubits, before.qubits) << name;
    EXPECT_EQ(after.measure_count, before.measure_count) << name;
    EXPECT_EQ(after.t_count, before.t_count) << name;
  }
}

}  // namespace
}  // namespace qcgen::qasm
