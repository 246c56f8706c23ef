// Robustness sweeps: the language front-end must handle arbitrarily
// corrupted program text without crashing, hanging or emitting unbounded
// diagnostics (the pipeline feeds it model-corrupted text constantly),
// and the simulators must maintain their invariants on random circuits.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "llm/simlm.hpp"
#include "llm/templates.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "sim/statevector.hpp"

#include "fuzz_sources.hpp"

namespace qcgen {
namespace {

using testing_support::mutate;

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, NeverCrashesAndBoundsDiagnostics) {
  for (const std::string& mutated :
       testing_support::mutated_gold_sources(GetParam())) {
    const qasm::ParseResult parsed = qasm::parse(mutated);
    // Diagnostics must stay proportional to the input, never explode
    // (regression guard for the stray-top-level-token loop).
    EXPECT_LT(parsed.diagnostics.size(), mutated.size() + 16);
    if (parsed.program.has_value()) {
      const auto report = qasm::analyze(*parsed.program);
      EXPECT_LT(report.diagnostics.size(), 200u);
      // Fix-its emitted on corrupted programs must apply (or refuse)
      // without crashing, and the patched text must still be parseable
      // input for the front-end (not necessarily error-free).
      const qasm::FixItResult fixed =
          qasm::apply_fixits(mutated, report.diagnostics);
      const auto repaired = qasm::parse(fixed.source);
      EXPECT_LT(repaired.diagnostics.size(), fixed.source.size() + 16);
      // The lint driver must also hold up with fix-its stripped and with
      // the dataflow group disabled (the two config paths benches use).
      qasm::AnalyzerOptions quiet;
      quiet.emit_fixits = false;
      quiet.dataflow_lints = false;
      const auto quiet_report =
          qasm::analyze(*parsed.program, qasm::LanguageRegistry::current(),
                        quiet);
      EXPECT_LE(quiet_report.diagnostics.size(), report.diagnostics.size());
      // The abstract interpreter must survive whatever parsed — with the
      // passes off (ablation path) and with a device topology committed
      // (topology-conformance active).
      qasm::AnalyzerOptions no_abstract;
      no_abstract.abstract_lints = false;
      const auto no_abstract_report = qasm::analyze(
          *parsed.program, qasm::LanguageRegistry::current(), no_abstract);
      EXPECT_LE(no_abstract_report.diagnostics.size(),
                report.diagnostics.size());
      qasm::AnalyzerOptions with_topology;
      with_topology.topology =
          qasm::lint::CouplingMap{"linear-3", 3, {{0, 1}, {1, 2}}};
      qasm::analyze(*parsed.program, qasm::LanguageRegistry::current(),
                    with_topology);  // must not throw
      // Printing whatever parsed must itself re-parse.
      const std::string reprinted = qasm::print_program(*parsed.program);
      const auto again = qasm::parse(reprinted);
      EXPECT_TRUE(again.program.has_value())
          << "print->parse broke on:\n" << reprinted;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 7));

TEST(ParserFuzz, PathologicalInputs) {
  // Hand-picked nasties.
  const char* inputs[] = {
      "",
      ";;;;;;;;",
      "}}}}}}{{{{{",
      "import ;",
      "import .....;",
      "circuit",
      "circuit m(",
      "circuit m(q: 999999999999) { h q[0]; }",
      "circuit m(q: 2) { rz() q[0]; }",
      "circuit m(q: 2) { rz(((((1)))) q[0]; }",
      "circuit m(q: 2) { if (c[0] == 1) if (c[1] == 0) x q[0]; }",
      "measure q[0] -> c[0];",
      "import qiskit; circuit m(q: 1) { h q[0]; } circuit m(q: 1) { }",
      "// only a comment",
      "\n\n\n\n",
      "circuit m(q: 1) { h q[0]; }  trailing garbage !!!",
  };
  for (const char* input : inputs) {
    const qasm::ParseResult parsed = qasm::parse(input);
    EXPECT_LT(parsed.diagnostics.size(), 64u) << input;
    if (parsed.program.has_value()) {
      qasm::analyze(*parsed.program);  // must not throw
    }
  }
}

TEST(ParserFuzz, UnterminatedDeclarationsParseInLinearTime) {
  // A circuit body or a gate statement that is never closed must not make
  // the parser rescan the rest of the source for each one: parsing eight
  // times as many should cost about eight times as much, far from the 64
  // times of a rescan per declaration. Best of five runs each.
  const auto repeated = [](std::string_view unit, std::size_t copies) {
    std::string source;
    source.reserve(unit.size() * copies);
    for (std::size_t i = 0; i < copies; ++i) source += unit;
    return source;
  };
  const auto best_seconds = [](const std::string& source) {
    double best = 1e9;
    for (int run = 0; run < 5; ++run) {
      const auto start = std::chrono::steady_clock::now();
      const qasm::ParseResult parsed = qasm::parse(source);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      EXPECT_FALSE(parsed.ok());
      best = std::min(best, took.count());
    }
    return best;
  };
  for (const std::string_view unit :
       {std::string_view("circuit a(q: 1) { "),
        std::string_view("circuit a(q: 1) { h q[0] } ")}) {
    const double small = best_seconds(repeated(unit, 1000));
    const double large = best_seconds(repeated(unit, 8000));
    EXPECT_LT(large, 32 * small)
        << "'" << unit << "' x8000 took " << large << " s, x1000 took "
        << small << " s";
  }
}

TEST(SimLmFuzz, GeneratedSourcesAlwaysAnalyzable) {
  // Whatever the model emits — however corrupted — the analyzer pipeline
  // must produce a verdict without throwing.
  llm::SimLM model(llm::base_knowledge(llm::ModelProfile::kStarCoder3B),
                   424242);
  const auto algorithms = llm::all_algorithms();
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    llm::TaskSpec task;
    task.algorithm = algorithms[rng.uniform_int(
        static_cast<std::uint64_t>(algorithms.size()))];
    const auto result = model.generate(task, llm::GenerationContext{});
    const auto parsed = qasm::parse(result.source);
    if (parsed.program.has_value()) {
      const auto report = qasm::analyze(*parsed.program);
      (void)report;
    }
  }
  SUCCEED();
}

class RandomCircuitInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitInvariants, NormPreservedAndDistributionsSane) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::size_t n = 2 + rng.uniform_int(static_cast<std::uint64_t>(4));
  sim::Circuit circuit(n, n);
  const sim::GateKind pool[] = {
      sim::GateKind::kH,  sim::GateKind::kX,  sim::GateKind::kT,
      sim::GateKind::kRY, sim::GateKind::kCX, sim::GateKind::kCZ,
      sim::GateKind::kSwap};
  for (int i = 0; i < 40; ++i) {
    const sim::GateKind kind =
        pool[rng.uniform_int(static_cast<std::uint64_t>(7))];
    sim::Operation op;
    op.kind = kind;
    const std::size_t a = rng.uniform_int(static_cast<std::uint64_t>(n));
    if (sim::gate_info(kind).num_qubits == 2) {
      std::size_t b = rng.uniform_int(static_cast<std::uint64_t>(n));
      while (b == a) b = rng.uniform_int(static_cast<std::uint64_t>(n));
      op.qubits = {a, b};
    } else {
      op.qubits = {a};
    }
    for (int p = 0; p < sim::gate_info(kind).num_params; ++p) {
      op.params.push_back(rng.uniform(-3.14, 3.14));
    }
    circuit.append(op);
  }
  circuit.measure_all();

  // Invariant 1: unitary evolution preserves the norm.
  sim::Circuit unitary_only(n, n);
  for (const auto& op : circuit.operations()) {
    if (op.kind != sim::GateKind::kMeasure) unitary_only.append(op);
  }
  const sim::StateVector state = sim::run_statevector(unitary_only);
  EXPECT_NEAR(state.norm(), 1.0, 1e-9);

  // Invariant 2: the exact distribution is a probability distribution.
  const sim::Distribution dist = sim::exact_distribution(circuit);
  double total = 0.0;
  for (const auto& [key, p] : dist) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-9);
    EXPECT_EQ(key.size(), n);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Invariant 3: sampled counts converge to the exact distribution.
  const Counts counts = sim::run_ideal(circuit, sim::RunOptions{20000, 3});
  EXPECT_LT(total_variation_distance(sim::to_distribution(counts), dist),
            0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitInvariants,
                         ::testing::Range(1, 11));

/// try_parse must either accept a spec or reject it cleanly — never
/// crash — and every accepted spec must survive a canonical round-trip.
void check_scenario_input(const std::string& spec) {
  std::string error;
  const auto parsed = failpoint::Scenario::try_parse(spec, &error);
  if (!parsed.has_value()) {
    EXPECT_FALSE(error.empty()) << "rejected without a reason: " << spec;
    return;
  }
  const std::string canonical = parsed->canonical();
  const auto reparsed = failpoint::Scenario::try_parse(canonical, &error);
  ASSERT_TRUE(reparsed.has_value())
      << "canonical form of '" << spec << "' rejected: " << error;
  EXPECT_EQ(*parsed, *reparsed) << spec;
  EXPECT_EQ(reparsed->canonical(), canonical) << spec;
}

TEST(ScenarioParserFuzz, RandomByteStringsNeverCrashTheParser) {
  // Alphabet biased toward the grammar's structural characters so the
  // sweep reaches deep parser states, plus genuinely hostile bytes.
  const std::string alphabet =
      "abchijz.=();@>_-0123456789ep \t\n\"\\\x01\x7f";
  Rng rng(0xfa11be75u);
  std::size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t length = rng.uniform_int(std::uint64_t{64});
    std::string spec;
    spec.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      spec.push_back(
          alphabet[rng.uniform_int(std::uint64_t{alphabet.size()})]);
    }
    check_scenario_input(spec);
    std::string error;
    if (failpoint::Scenario::try_parse(spec, &error).has_value()) ++accepted;
  }
  // Mostly garbage: if the parser starts accepting everything, the
  // rejection paths above stopped being exercised.
  EXPECT_LT(accepted, 4000u);
}

TEST(ScenarioParserFuzz, MutatedValidSpecsParseOrRejectCleanly) {
  const std::vector<std::string> seeds = {
      "llm.generate=error(0.02);qec.decode=error(1.0)@pass>1",
      "analyzer.parse=corrupt(0.5)@every=3",
      "retrieval.query=delay(2.5)@p=0.1;pool.task=error",
      "oracle.reference=error(1.0)",
  };
  Rng rng(20260805);
  std::size_t still_valid = 0;
  for (const std::string& seed : seeds) {
    // Unmutated seeds are valid by construction.
    std::string error;
    ASSERT_TRUE(failpoint::Scenario::try_parse(seed, &error).has_value())
        << error;
    for (int round = 0; round < 1000; ++round) {
      const std::string spec =
          mutate(seed, 1 + static_cast<int>(rng.uniform_int(std::uint64_t{4})),
                 rng);
      check_scenario_input(spec);
      if (failpoint::Scenario::try_parse(spec, &error).has_value()) {
        ++still_valid;
      }
    }
  }
  // Single-character mutations frequently stay inside the grammar
  // (e.g. a digit change); both branches must have been exercised.
  EXPECT_GT(still_valid, 0u);
}

TEST(ScenarioParserFuzz, TrailingSeparatorVariantsRoundTrip) {
  // Trailing-';' canonicalization: for any accepted spec, appending one
  // ';' must parse to the identical scenario (and still round-trip),
  // while doubling the separator must reject with a structured reason —
  // fuzzed over mutated seeds so the property holds off the happy path.
  const std::vector<std::string> seeds = {
      "llm.generate=error(0.02);qec.decode=error(1.0)@pass>1",
      "retrieval.query=delay(2.5)@p=0.1;pool.task=error",
  };
  Rng rng(0x5e9a7a11u);
  for (const std::string& seed : seeds) {
    for (int round = 0; round < 500; ++round) {
      const std::string spec =
          round == 0
              ? seed
              : mutate(seed,
                       1 + static_cast<int>(rng.uniform_int(std::uint64_t{3})),
                       rng);
      std::string error;
      const auto bare = failpoint::Scenario::try_parse(spec, &error);
      check_scenario_input(spec + ";");
      check_scenario_input(spec + "; \t");
      // A mutated spec may itself end in the tolerated trailing ';' —
      // appending onto that builds ";;", a legitimate reject — so the
      // identity only applies when the spec's last grammar byte isn't ';'.
      const std::size_t last = spec.find_last_not_of(" \t\n\r");
      const bool already_trailed =
          last != std::string::npos && spec[last] == ';';
      if (bare.has_value() && !bare->empty() && !already_trailed) {
        const auto trailed = failpoint::Scenario::try_parse(spec + ";", &error);
        ASSERT_TRUE(trailed.has_value()) << spec << " ;: " << error;
        EXPECT_EQ(*bare, *trailed) << spec;
        // ";;" appends an interior empty clause: always a clean reject.
        EXPECT_FALSE(
            failpoint::Scenario::try_parse(spec + ";;", &error).has_value())
            << spec;
        EXPECT_NE(error.find("empty clause"), std::string::npos) << error;
      }
    }
  }
}

}  // namespace
}  // namespace qcgen
