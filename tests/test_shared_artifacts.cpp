// Shared immutable artifacts on the per-trial path: gold programs built
// once and aliased by every plan that reads them, analysis-cache hits
// handed out by reference, and one compiled analyzer kit per trial
// matrix or server. Each must be invisible in the results and must never
// be mutated through the share, at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agents/pipeline.hpp"
#include "common/failpoint.hpp"
#include "eval/judge.hpp"
#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "llm/corpus.hpp"
#include "llm/finetune.hpp"
#include "llm/simlm.hpp"
#include "llm/templates.hpp"
#include "qasm/builder.hpp"
#include "qasm/printer.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/statevector.hpp"

using namespace qcgen;

namespace {

std::string printed(const qasm::Program& program) {
  return qasm::print_program(program);
}

/// A gold entry built for the caller alone, outside the shared table.
std::shared_ptr<const llm::GoldProgram> fresh_gold(const llm::TaskSpec& task) {
  qasm::Program program = llm::gold_program(task);
  std::string source = printed(program);
  return std::make_shared<const llm::GoldProgram>(
      llm::GoldProgram{std::move(program), std::move(source)});
}

llm::TaskSpec default_task(llm::AlgorithmId id) {
  llm::TaskSpec task;
  task.algorithm = id;
  return task;
}

/// The process-wide gold entry of `id` at its default parameters.
std::shared_ptr<const llm::GoldProgram> default_gold(llm::AlgorithmId id) {
  return llm::shared_gold(default_task(id));
}

std::string fresh_default_gold(llm::AlgorithmId id) {
  return printed(llm::gold_program(default_task(id)));
}

std::optional<llm::AlgorithmId> algorithm_named(const std::string& name) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    if (llm::algorithm_name(id) == name) return id;
  }
  return std::nullopt;
}

/// The fig-4 style matrix: RAG, three passes, QEC on a 5x5 grid.
eval::RunnerOptions matrix_options(std::size_t threads) {
  eval::RunnerOptions options;
  options.seed = 2025;
  options.threads = threads;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 100;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);
  return options;
}

agents::TechniqueConfig rag_multipass() {
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;
  return technique;
}

/// Runs the matrix and checks every trial's planned program, while the
/// trial is visited, against a fresh build: a correct plan aliases its
/// case's one shared gold program, a wrong-algorithm plan aliases the
/// process-wide default of that algorithm, and every shared program
/// still prints exactly as gold_program builds it.
void expect_golds_intact(const std::vector<eval::TestCase>& suite,
                         std::size_t threads) {
  std::map<std::size_t, const qasm::Program*> case_gold;
  std::size_t wrong_algorithm_plans = 0;
  eval::run_trial_matrix(
      rag_multipass(), suite, 3, matrix_options(threads),
      [&](const eval::Trial& trial) {
        ASSERT_EQ(trial.failure, nullptr) << trial.failure->what;
        const llm::GenerationResult& generation = trial.result->generation;
        ASSERT_NE(generation.intended_ast, nullptr);
        std::optional<std::string> wrong_plan;
        for (const llm::Fault& fault : generation.faults) {
          if (fault.kind == llm::FaultKind::kWrongPlan) {
            wrong_plan = fault.detail;
          }
        }
        const llm::TaskSpec& task = suite[trial.case_idx].task;
        if (!wrong_plan.has_value()) {
          EXPECT_EQ(printed(*generation.intended_ast),
                    printed(llm::gold_program(task)))
              << suite[trial.case_idx].id;
          const auto [it, inserted] = case_gold.emplace(
              trial.case_idx, generation.intended_ast.get());
          EXPECT_EQ(it->second, generation.intended_ast.get())
              << "trials of " << suite[trial.case_idx].id
              << " planned from different gold objects";
          (void)inserted;
          return;
        }
        const std::string prefix = "wrong-algorithm:";
        if (wrong_plan->rfind(prefix, 0) == 0) {
          const auto id = algorithm_named(wrong_plan->substr(prefix.size()));
          ASSERT_TRUE(id.has_value()) << *wrong_plan;
          EXPECT_EQ(generation.intended_ast.get(),
                    &default_gold(*id)->program);
          ++wrong_algorithm_plans;
        } else {
          // A structurally corrupted plan owns its copy; the case's
          // shared gold must not be the object it mutated.
          const auto it = case_gold.find(trial.case_idx);
          if (it != case_gold.end()) {
            EXPECT_NE(it->second, generation.intended_ast.get());
          }
        }
      });
  EXPECT_GT(wrong_algorithm_plans, 0u);
  // Most cases plan correctly at least once at these settings; every one
  // that did was checked above against a fresh build.
  EXPECT_GE(case_gold.size(), suite.size() / 2);
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    EXPECT_EQ(printed(default_gold(id)->program), fresh_default_gold(id))
        << llm::algorithm_name(id);
  }
}

}  // namespace

TEST(SharedArtifacts, GoldProgramsStayIntactAtAnyThreadCount) {
  const auto suite = eval::semantic_suite();
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    expect_golds_intact(suite, threads);
  }
}

TEST(SharedArtifacts, DefaultGoldTableIsBuiltOnce) {
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    const auto first = default_gold(id);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first, default_gold(id));
    EXPECT_EQ(printed(first->program), fresh_default_gold(id));
    EXPECT_EQ(first->source, fresh_default_gold(id));
  }
}

TEST(SharedArtifacts, OracleKeepsTheGoldItSimulated) {
  const auto suite = eval::semantic_suite();
  eval::ReferenceOracle oracle;
  oracle.prewarm(suite);
  for (const eval::TestCase& test_case : suite) {
    const auto gold = oracle.gold(test_case.id);
    ASSERT_NE(gold, nullptr) << test_case.id;
    EXPECT_EQ(printed(gold->program),
              printed(llm::gold_program(test_case.task)));
    EXPECT_EQ(gold->source, printed(gold->program));
  }
  EXPECT_EQ(oracle.gold("no-such-case"), nullptr);
}

TEST(SharedArtifacts, PrebuiltGoldGeneratesIdentically) {
  // Handing SimLM the prebuilt gold changes nothing it draws or prints.
  const auto suite = eval::semantic_suite();
  const llm::KnowledgeState knowledge =
      llm::base_knowledge(llm::ModelProfile::kStarCoder3B);
  for (const eval::TestCase& test_case : suite) {
    llm::SimLM own(knowledge, 31);
    llm::SimLM shared(knowledge, 31);
    llm::GenerationContext context;
    llm::GenerationContext with_gold;
    with_gold.gold = fresh_gold(test_case.task);
    for (int sample = 0; sample < 4; ++sample) {
      const auto a = own.generate(test_case.task, context);
      const auto b = shared.generate(test_case.task, with_gold);
      EXPECT_EQ(a.source, b.source) << test_case.id;
      EXPECT_EQ(printed(*a.intended_ast), printed(*b.intended_ast));
    }
    EXPECT_EQ(printed(with_gold.gold->program),
              printed(llm::gold_program(test_case.task)));
  }
}

TEST(SharedArtifacts, RetriedRepairSeesTheSameInput) {
  const auto suite = eval::semantic_suite();
  const llm::KnowledgeState knowledge =
      llm::base_knowledge(llm::ModelProfile::kStarCoder3B);
  const agents::SemanticAnalyzerAgent analyzer;
  std::size_t repaired = 0;
  for (const eval::TestCase& test_case : suite) {
    llm::SimLM model(knowledge, 57);
    const llm::GenerationResult prev =
        model.generate(test_case.task, llm::GenerationContext{});
    const auto report = analyzer.analyze(prev.source);
    const std::string prev_source = prev.source;
    const std::string prev_ast = printed(*prev.ast);
    // Two identically seeded models repairing the same artifact: the
    // second call must see exactly what the first saw.
    llm::SimLM first(knowledge, 91);
    llm::SimLM retry(knowledge, 91);
    const auto a = first.repair(test_case.task, prev, report->diagnostics,
                                report->syntactic_ok, {}, 1);
    EXPECT_EQ(prev.source, prev_source);
    EXPECT_EQ(printed(*prev.ast), prev_ast);
    const auto b = retry.repair(test_case.task, prev, report->diagnostics,
                                report->syntactic_ok, {}, 1);
    EXPECT_EQ(a.source, b.source) << test_case.id;
    EXPECT_EQ(printed(*a.intended_ast), printed(*b.intended_ast));
    if (a.source != prev.source) ++repaired;
  }
  EXPECT_GT(repaired, 0u);
}

TEST(SharedArtifacts, UntouchedPlanIsEmittedWithoutACopy) {
  // A model that never faults emits the gold program it was handed.
  llm::KnowledgeState perfect;
  perfect.syntax_skill = 1.0;
  perfect.api_recency = 1.0;
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    perfect.semantic[id] = 1.0;
  }
  for (const eval::TestCase& test_case : eval::semantic_suite()) {
    llm::SimLM model(perfect, 13);
    llm::GenerationContext context;
    context.gold = fresh_gold(test_case.task);
    const llm::GenerationResult result =
        model.generate(test_case.task, context);
    ASSERT_TRUE(result.faults.empty()) << test_case.id;
    EXPECT_EQ(result.intended_ast.get(), &context.gold->program);
    EXPECT_EQ(result.ast.get(), result.intended_ast.get()) << test_case.id;
    EXPECT_EQ(result.source, printed(context.gold->program));
  }
}

TEST(SharedArtifacts, FaultedGenerationOwnsItsCopy) {
  // Every surface fault and slip writes to a copy: the shared plan keeps
  // printing as the gold it aliases.
  const llm::KnowledgeState weak =
      llm::base_knowledge(llm::ModelProfile::kStarCoder3B);
  std::size_t owned = 0;
  std::size_t shared = 0;
  for (const eval::TestCase& test_case : eval::semantic_suite()) {
    llm::SimLM model(weak, 29);
    llm::GenerationContext context;
    context.gold = fresh_gold(test_case.task);
    const std::string gold = printed(context.gold->program);
    for (int sample = 0; sample < 4; ++sample) {
      const llm::GenerationResult result =
          model.generate(test_case.task, context);
      const bool wrote = std::any_of(
          result.faults.begin(), result.faults.end(),
          [](const llm::Fault& f) {
            return f.kind != llm::FaultKind::kWrongPlan &&
                   f.kind != llm::FaultKind::kParseCorruption;
          });
      if (wrote) {
        ++owned;
        EXPECT_NE(result.ast.get(), result.intended_ast.get());
        EXPECT_NE(printed(*result.ast), printed(*result.intended_ast));
      } else {
        ++shared;
        EXPECT_EQ(result.ast.get(), result.intended_ast.get());
      }
      EXPECT_EQ(printed(context.gold->program), gold) << test_case.id;
    }
  }
  EXPECT_GT(owned, 0u);
  EXPECT_GT(shared, 0u);
}

TEST(SharedArtifacts, KeptRepairSharesItsInputAst) {
  // Statically clean but behaviourally wrong: the model mostly keeps its
  // artifact, and a kept artifact is handed on, not copied.
  const llm::KnowledgeState weak =
      llm::base_knowledge(llm::ModelProfile::kStarCoder3B);
  std::size_t kept = 0;
  for (const eval::TestCase& test_case : eval::semantic_suite()) {
    llm::SimLM model(weak, 43);
    const llm::GenerationResult prev =
        model.generate(test_case.task, llm::GenerationContext{});
    const llm::GenerationResult next = model.repair(
        test_case.task, prev, {}, /*semantic_failure=*/true, {}, 1);
    if (next.source != prev.source) continue;  // replanned
    ++kept;
    EXPECT_EQ(next.ast.get(), prev.ast.get()) << test_case.id;
    EXPECT_EQ(next.intended_ast.get(), prev.intended_ast.get());
  }
  EXPECT_GT(kept, 0u);
}

TEST(SharedArtifacts, GoldProgramsPrintTheSameAfterAMatrix) {
  // perfbench's eval shape: every third case, eight samples, 272 trials.
  // The first correct plan of each case is held past the matrix, printed
  // when first seen and again once every trial has read it.
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> suite;
  for (std::size_t i = 0; i < full.size(); i += 3) suite.push_back(full[i]);
  ASSERT_EQ(suite.size() * 8, 272u);
  eval::RunnerOptions options;
  options.seed = 2025;
  options.threads = 1;
  std::map<std::size_t, std::pair<std::shared_ptr<const qasm::Program>,
                                  std::string>>
      golds;
  std::size_t untouched = 0;
  eval::run_trial_matrix(
      rag_multipass(), suite, 8, options, [&](const eval::Trial& trial) {
        ASSERT_EQ(trial.failure, nullptr);
        const llm::GenerationResult& generation = trial.result->generation;
        if (generation.ast == generation.intended_ast) ++untouched;
        const bool wrong_plan = std::any_of(
            generation.faults.begin(), generation.faults.end(),
            [](const llm::Fault& f) {
              return f.kind == llm::FaultKind::kWrongPlan;
            });
        if (!wrong_plan && golds.count(trial.case_idx) == 0) {
          golds[trial.case_idx] = {generation.intended_ast,
                                   printed(*generation.intended_ast)};
        }
      });
  EXPECT_GT(untouched, 0u);
  EXPECT_GE(golds.size(), suite.size() / 2);
  for (const auto& [case_idx, gold] : golds) {
    EXPECT_EQ(printed(*gold.first), gold.second) << suite[case_idx].id;
    EXPECT_EQ(gold.second, printed(llm::gold_program(suite[case_idx].task)));
  }
}

TEST(SharedArtifacts, AnalysisHitIsTheMissObject) {
  std::vector<std::string> sources;
  for (const eval::TestCase& test_case : eval::semantic_suite()) {
    sources.push_back(printed(llm::gold_program(test_case.task)));
  }
  sources.push_back("circuit main(q: 1) { frobnicate q[0]; }");
  sources.push_back("import qiskit; circuit main(q: 2, c: 2) { h q[0] ");

  const agents::SemanticAnalyzerAgent uncached;
  agents::SemanticAnalyzerAgent cached;
  cached.set_analysis_cache(
      std::make_shared<agents::AnalysisCache>(cache::CacheOptions{}));
  for (const std::string& source : sources) {
    const auto miss = cached.analyze(source);
    const auto hit = cached.analyze(source);
    EXPECT_EQ(hit.get(), miss.get()) << source;
    const auto want = uncached.analyze(source);
    EXPECT_NE(want.get(), miss.get());
    EXPECT_EQ(miss->syntactic_ok, want->syntactic_ok);
    EXPECT_EQ(miss->diagnostics, want->diagnostics) << source;
    EXPECT_EQ(miss->error_trace, want->error_trace);
    ASSERT_EQ(miss->circuit.has_value(), want->circuit.has_value());
    if (want->circuit.has_value()) {
      EXPECT_EQ(agents::circuit_digest(*miss->circuit),
                agents::circuit_digest(*want->circuit));
    }
    EXPECT_EQ(miss->resources.two_qubit_count, want->resources.two_qubit_count);
  }
}

TEST(SharedArtifacts, MatrixPipelinesShareOneAnalyzerKitAtAnyThreadCount) {
  const auto suite = eval::semantic_suite();
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    const std::size_t before = agents::AnalyzerKit::built();
    std::size_t visits = 0;
    eval::run_trial_matrix(rag_multipass(), suite, 2, matrix_options(threads),
                           [&](const eval::Trial&) { ++visits; });
    EXPECT_EQ(agents::AnalyzerKit::built() - before, 1u);
    EXPECT_EQ(visits, 2 * suite.size());
  }
}

TEST(SharedArtifacts, ServerRequestsShareOneAnalyzerKit) {
  const auto full = eval::semantic_suite();
  const std::vector<eval::TestCase> catalog(full.begin(), full.begin() + 6);
  serve::Server::Options options;
  options.technique = rag_multipass();
  options.threads = 2;
  options.admission = serve::AdmissionOptions::unlimited();
  const std::size_t before = agents::AnalyzerKit::built();
  {
    serve::Server server(options, catalog);
    serve::Session session(server, 1);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < 24; ++id) {
      futures.push_back(session.submit(id, catalog[id % catalog.size()],
                                       0.25 * static_cast<double>(id)));
    }
    server.drain();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().outcome, serve::RequestOutcome::kCompleted);
    }
  }
  EXPECT_EQ(agents::AnalyzerKit::built() - before, 1u);
}

TEST(SharedArtifacts, PipelineRungsReadTheKit) {
  const auto technique = rag_multipass();
  const auto resources =
      std::make_shared<const agents::TechniqueResources>(technique);
  const agents::AnalyzerKit kit(agents::SemanticAnalyzerAgent::Options{});
  EXPECT_NE(kit.configured(), kit.core_lints());
  EXPECT_TRUE(kit.configured()->options.analysis.abstract_lints);
  EXPECT_FALSE(kit.core_lints()->options.analysis.abstract_lints);
  agents::MultiAgentPipeline a(technique, resources, kit, std::nullopt,
                               std::nullopt, 1);
  agents::MultiAgentPipeline b(technique, resources, kit, std::nullopt,
                               std::nullopt, 2);
  EXPECT_EQ(a.analyzer().config(), b.analyzer().config());
  EXPECT_EQ(a.analyzer().config(), kit.configured());
  // The braced default-options form (as the repository benchmark writes
  // it) still selects the options constructor and compiles its own kit.
  const std::size_t before = agents::AnalyzerKit::built();
  agents::MultiAgentPipeline own(technique, resources, {}, std::nullopt,
                                 std::nullopt, 3);
  EXPECT_EQ(agents::AnalyzerKit::built() - before, 1u);
  EXPECT_NE(own.analyzer().config(), kit.configured());

  agents::SemanticAnalyzerAgent::Options core;
  core.analysis.abstract_lints = false;
  const agents::AnalyzerKit core_only(core);
  EXPECT_EQ(core_only.configured(), core_only.core_lints());
}

TEST(SharedArtifacts, LastDegradationsHoldOnlyAThrowingRun) {
  const auto suite = eval::semantic_suite();
  agents::MultiAgentPipeline pipeline(rag_multipass(), {}, std::nullopt,
                                      std::nullopt, 5);
  {
    // Both analyze rungs fail: one ladder step, then the stage error.
    const auto scenario = std::make_shared<const failpoint::Scenario>(
        failpoint::Scenario::parse("analyzer.parse=error(1.0)"));
    failpoint::Injector injector(scenario, 1);
    const failpoint::InjectorScope scope(&injector);
    EXPECT_THROW(pipeline.run(suite[0].task, {}, 0),
                 agents::PipelineStageError);
  }
  ASSERT_FALSE(pipeline.last_degradations().empty());
  EXPECT_EQ(pipeline.last_degradations().front().stage, "analyze");
  const agents::PipelineResult result = pipeline.run(suite[0].task, {}, 0);
  EXPECT_TRUE(pipeline.last_degradations().empty());
  (void)result;
}

// ---------------------------------------------------------------------------
// Process-wide tables: knowledge states, BM25 stores, gold programs and
// reference distributions are built once per process and shared by every
// matrix, server and standalone agent after that.

namespace {

void expect_same_hits(const std::vector<llm::Retrieved>& a,
                      const std::vector<llm::Retrieved>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].chunk->doc_id, b[i].chunk->doc_id);
    EXPECT_EQ(a[i].chunk->text, b[i].chunk->text);
    EXPECT_EQ(a[i].score, b[i].score);  // bitwise
  }
}

/// The exact distribution of `task`'s gold program, built from scratch.
sim::Distribution fresh_reference(const llm::TaskSpec& task) {
  return sim::exact_distribution(
      qasm::build_circuit(llm::gold_program(task)));
}

}  // namespace

TEST(ProcessTables, MemoizedArtifactsEqualAFreshBuild) {
  auto technique = rag_multipass();
  technique.chunking = llm::ChunkStrategy::kStructureAware;
  const agents::TechniqueResources first(technique);
  const agents::TechniqueResources second(technique);
  // One entry per configuration, whichever handle asks.
  EXPECT_EQ(first.api_store(), second.api_store());
  EXPECT_EQ(first.guide_store(), second.guide_store());
  EXPECT_EQ(&first.knowledge(), &second.knowledge());

  const llm::KnowledgeState fresh_knowledge = llm::apply_finetuning(
      llm::base_knowledge(technique.profile), technique.finetune);
  EXPECT_EQ(first.knowledge_version(),
            llm::knowledge_digest(fresh_knowledge));
  EXPECT_EQ(llm::knowledge_digest(first.knowledge()),
            llm::knowledge_digest(fresh_knowledge));

  const llm::VectorStore api(llm::chunk_documents(
      llm::qiskit_api_corpus(technique.api_stale_fraction),
      technique.chunking));
  const llm::VectorStore guides(llm::chunk_documents(
      llm::algorithm_guide_corpus(), technique.chunking));
  EXPECT_EQ(first.api_store()->content_version(), api.content_version());
  EXPECT_EQ(first.guide_store()->content_version(), guides.content_version());
  for (const eval::TestCase& test_case : eval::semantic_suite()) {
    const std::string query = llm::prompt_text(test_case.task);
    expect_same_hits(first.api_store()->retrieve(query, 4),
                     api.retrieve(query, 4));
    expect_same_hits(first.guide_store()->retrieve(query, 4),
                     guides.retrieve(query, 4));
  }

  eval::ReferenceOracle oracle;
  for (const eval::TestCase& test_case : eval::qhe_suite()) {
    const auto gold = llm::shared_gold(test_case.task);
    EXPECT_EQ(gold, llm::shared_gold(test_case.task));
    EXPECT_EQ(gold->source, printed(llm::gold_program(test_case.task)));
    EXPECT_EQ(gold->source, printed(gold->program));
    EXPECT_EQ(oracle.reference_for(test_case),
              fresh_reference(test_case.task))
        << test_case.id;
    EXPECT_EQ(oracle.gold(test_case.id), gold);
  }
}

TEST(ProcessTables, ParamsDifferingInTheFourthDecimalGetDistinctGolds) {
  eval::TestCase a;
  a.task.algorithm = llm::AlgorithmId::kSingleQubitRotation;
  a.task.params = {{"theta", 0.7001}};
  eval::TestCase b = a;
  b.task.params = {{"theta", 0.7002}};
  a.id = a.task.id();
  b.id = b.task.id();
  ASSERT_EQ(a.id, b.id);  // the id rounds both to theta=0.700
  EXPECT_NE(llm::task_digest(a.task), llm::task_digest(b.task));
  const auto gold_a = llm::shared_gold(a.task);
  const auto gold_b = llm::shared_gold(b.task);
  EXPECT_NE(gold_a, gold_b);
  eval::ReferenceOracle oracle_a;
  eval::ReferenceOracle oracle_b;
  const sim::Distribution& ref_a = oracle_a.reference_for(a);
  const sim::Distribution& ref_b = oracle_b.reference_for(b);
  EXPECT_NE(ref_a, ref_b);
  EXPECT_EQ(ref_a, fresh_reference(a.task));
  EXPECT_EQ(ref_b, fresh_reference(b.task));
  EXPECT_EQ(oracle_a.gold(a.id), gold_a);
  EXPECT_EQ(oracle_b.gold(b.id), gold_b);
}

#if QCGEN_FAILPOINTS_ENABLED
TEST(ProcessTables, WarmTableStillTripsTheOracleFailPoint) {
  const auto full = eval::semantic_suite();
  const std::vector<eval::TestCase> suite(full.begin(), full.begin() + 8);
  eval::RunnerOptions options;
  options.seed = 7;
  options.threads = 2;
  const eval::TrialMatrix warm = eval::run_trial_matrix(
      rag_multipass(), suite, 1, options, [](const eval::Trial&) {});
  EXPECT_TRUE(warm.degradations.empty());

  // Every case's reference is in the process-wide table now; the oracle
  // of the next matrix still trips per case and degrades each one.
  options.chaos_scenario = "oracle.reference=error(1.0)";
  std::size_t visits = 0;
  const eval::TrialMatrix down = eval::run_trial_matrix(
      rag_multipass(), suite, 1, options, [&](const eval::Trial& trial) {
        EXPECT_EQ(trial.failure, nullptr);
        ++visits;
      });
  EXPECT_EQ(visits, suite.size());
  ASSERT_EQ(down.degradations.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(down.degradations[i].case_idx, i);
    EXPECT_EQ(down.degradations[i].event.stage, "oracle");
    EXPECT_EQ(down.degradations[i].event.to, "static-only");
  }
}
#endif  // QCGEN_FAILPOINTS_ENABLED

TEST(ProcessTables, ServersKeepTheirOwnRetrievalCaches) {
  const auto full = eval::semantic_suite();
  const std::vector<eval::TestCase> catalog(full.begin(), full.begin() + 4);
  serve::Server::Options options;
  options.technique = rag_multipass();
  options.threads = 2;
  options.admission = serve::AdmissionOptions::unlimited();
  options.cache.enabled = true;
  const auto retrieval = [](const serve::Server& server) {
    for (const serve::CacheLayerReport& report : server.cache_reports()) {
      if (report.layer == "retrieval") return report.stats;
    }
    ADD_FAILURE() << "no retrieval layer";
    return cache::Stats{};
  };
  const auto serve_requests = [&](serve::Server& server, std::size_t count) {
    serve::Session session(server, 1);
    std::vector<std::future<serve::RequestResult>> futures;
    for (std::uint64_t id = 0; id < count; ++id) {
      futures.push_back(session.submit(id, catalog[id % catalog.size()],
                                       0.25 * static_cast<double>(id)));
    }
    server.drain();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().outcome, serve::RequestOutcome::kCompleted);
    }
  };
  serve::Server a(options, catalog);
  serve::Server b(options, catalog);
  serve_requests(a, 12);
  const cache::Stats after_a = retrieval(a);
  EXPECT_GT(after_a.lookups, 0u);
  EXPECT_EQ(retrieval(b), cache::Stats{});
  serve_requests(b, 4);
  EXPECT_EQ(retrieval(a), after_a);
  const cache::Stats after_b = retrieval(b);
  EXPECT_GT(after_b.lookups, 0u);
  // b starts cold: a's entries for the same queries are not its own.
  EXPECT_GT(after_b.misses, 0u);
}

TEST(ProcessTables, FirstUseRaceBuildsOneEntryPerKey) {
  // Configurations no other test uses, so this test is their first use
  // in the process (scripts/check.sh runs it alone in fresh processes).
  agents::TechniqueConfig technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kGranite20B);
  technique.finetune.steps = 1234;
  technique.api_stale_fraction = 0.123;
  technique.chunking = llm::ChunkStrategy::kStructureAware;
  eval::TestCase test_case;
  test_case.task.algorithm = llm::AlgorithmId::kSwapTest;
  test_case.task.params = {{"theta1", 0.4242}, {"theta2", 1.2121}};
  test_case.id = test_case.task.id();

  constexpr std::size_t kThreads = 8;
  struct Seen {
    const llm::KnowledgeState* knowledge = nullptr;
    const llm::VectorStore* api = nullptr;
    const llm::VectorStore* guides = nullptr;
    std::shared_ptr<const llm::GoldProgram> gold;
    sim::Distribution reference;
  };
  std::vector<Seen> seen(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const agents::TechniqueResources resources(technique);
      eval::ReferenceOracle oracle;
      seen[t] = {&resources.knowledge(), resources.api_store(),
                 resources.guide_store(), llm::shared_gold(test_case.task),
                 oracle.reference_for(test_case)};
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Seen& s : seen) {
    EXPECT_EQ(s.knowledge, seen[0].knowledge);
    EXPECT_EQ(s.api, seen[0].api);
    EXPECT_EQ(s.guides, seen[0].guides);
    EXPECT_EQ(s.gold, seen[0].gold);
    EXPECT_EQ(s.reference, fresh_reference(test_case.task));
  }
  EXPECT_EQ(seen[0].gold->source, printed(llm::gold_program(test_case.task)));
  EXPECT_EQ(seen[0].api->content_version(),
            llm::VectorStore(llm::chunk_documents(
                                 llm::qiskit_api_corpus(0.123),
                                 llm::ChunkStrategy::kStructureAware))
                .content_version());
}
