// Tests for the knowledge model, fine-tuning model, CoT scaffolds,
// pass@k, and the SimLM generator/repair behaviour.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "llm/cot.hpp"
#include "llm/finetune.hpp"
#include "llm/knowledge.hpp"
#include "llm/passk.hpp"
#include "llm/simlm.hpp"
#include "llm/templates.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/printer.hpp"
#include "qasm/parser.hpp"

namespace qcgen::llm {
namespace {

TEST(Knowledge, BoostMovesTowardsOne) {
  EXPECT_NEAR(KnowledgeState::boost(0.5, 0.5), 0.75, 1e-12);
  EXPECT_NEAR(KnowledgeState::boost(0.5, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(KnowledgeState::boost(0.5, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(KnowledgeState::boost(0.8, -0.5), 0.4, 1e-12);
  EXPECT_THROW(KnowledgeState::boost(0.5, 1.5), InvalidArgumentError);
}

TEST(Knowledge, ProfilesAreOrderedBySize) {
  const auto small = base_knowledge(ModelProfile::kStarCoder3B);
  const auto medium = base_knowledge(ModelProfile::kStarCoder7B);
  const auto large = base_knowledge(ModelProfile::kGranite20B);
  EXPECT_LT(small.syntax_skill, medium.syntax_skill);
  EXPECT_LT(medium.syntax_skill, large.syntax_skill);
  EXPECT_LT(small.api_recency, large.api_recency);
}

TEST(Knowledge, TierSemanticsOrdered) {
  const auto k = base_knowledge(ModelProfile::kStarCoder3B);
  EXPECT_GT(k.semantic_for(AlgorithmId::kBellPair),
            k.semantic_for(AlgorithmId::kGrover));
  EXPECT_GT(k.semantic_for(AlgorithmId::kGrover),
            k.semantic_for(AlgorithmId::kTeleportation));
  EXPECT_EQ(k.semantic_for(static_cast<AlgorithmId>(9999)), 0.0);
}

TEST(Knowledge, DigestIsPinned) {
  // Generation keys fold the digest in, and content-addressed generations
  // seed their model from those keys: these values must never move.
  EXPECT_EQ(knowledge_digest(base_knowledge(ModelProfile::kStarCoder3B)),
            0x5a267b0c7e2c9a5fULL);
  EXPECT_EQ(knowledge_digest(base_knowledge(ModelProfile::kStarCoder7B)),
            0xcc58ae3156f75fb9ULL);
  EXPECT_EQ(knowledge_digest(base_knowledge(ModelProfile::kGranite20B)),
            0x4c3d47bee70e533aULL);
  EXPECT_EQ(knowledge_digest(apply_finetuning(
                base_knowledge(ModelProfile::kStarCoder3B), FineTuneConfig{})),
            0xab72a4019b958ec0ULL);
  // Only present ids are hashed, in ascending id order.
  KnowledgeState sparse;
  sparse.semantic[AlgorithmId::kGhz] = 0.5;
  sparse.semantic[AlgorithmId::kBellPair] = 0.25;
  EXPECT_EQ(knowledge_digest(sparse), 0x74358b65b05e15c4ULL);
  EXPECT_EQ(knowledge_digest(KnowledgeState{}), 0x5db1c9c93624d952ULL);
}

TEST(Knowledge, SemanticTableMarksPresence) {
  KnowledgeState k;
  EXPECT_EQ(k.semantic.size(), 0u);
  EXPECT_FALSE(k.semantic.contains(AlgorithmId::kGrover));
  EXPECT_EQ(k.semantic_for(AlgorithmId::kGrover), 0.0);
  // operator[] marks the id present even before anything is written.
  (void)k.semantic[AlgorithmId::kGrover];
  EXPECT_TRUE(k.semantic.contains(AlgorithmId::kGrover));
  EXPECT_EQ(k.semantic.size(), 1u);
  EXPECT_EQ(k.semantic_for(AlgorithmId::kGrover), 0.0);
  const std::uint64_t marked = knowledge_digest(k);
  EXPECT_NE(marked, knowledge_digest(KnowledgeState{}));
  k.semantic[AlgorithmId::kGrover] = 0.75;
  EXPECT_EQ(k.semantic_for(AlgorithmId::kGrover), 0.75);
  EXPECT_NE(knowledge_digest(k), marked);
  EXPECT_FALSE(k.semantic.contains(static_cast<AlgorithmId>(9999)));
  EXPECT_THROW(k.semantic[static_cast<AlgorithmId>(9999)],
               InvalidArgumentError);
  // Every profile states a value for every algorithm.
  EXPECT_EQ(base_knowledge(ModelProfile::kGranite20B).semantic.size(),
            kAlgorithmCount);
  EXPECT_EQ(all_algorithms().size(), kAlgorithmCount);
}

TEST(Knowledge, FaultRatesDecreaseWithSkill) {
  KnowledgeState weak;
  weak.syntax_skill = 0.2;
  weak.api_recency = 0.2;
  weak.semantic[AlgorithmId::kGhz] = 0.2;
  KnowledgeState strong;
  strong.syntax_skill = 0.9;
  strong.api_recency = 0.9;
  strong.semantic[AlgorithmId::kGhz] = 0.9;
  const auto weak_rates = fault_rates(weak, AlgorithmId::kGhz);
  const auto strong_rates = fault_rates(strong, AlgorithmId::kGhz);
  EXPECT_GT(weak_rates.deprecated_import, strong_rates.deprecated_import);
  EXPECT_GT(weak_rates.parse_corruption, strong_rates.parse_corruption);
  EXPECT_GT(weak_rates.semantic_slip, strong_rates.semantic_slip);
}

TEST(Knowledge, SyntaxDifficultyScalesSyntacticChannels) {
  const auto k = base_knowledge(ModelProfile::kStarCoder3B);
  const auto easy = fault_rates(k, AlgorithmId::kGhz, 1.0);
  const auto hard = fault_rates(k, AlgorithmId::kGhz, 2.0);
  EXPECT_NEAR(hard.gate_misuse, 2.0 * easy.gate_misuse, 1e-12);
  EXPECT_NEAR(hard.semantic_slip, easy.semantic_slip, 1e-12);  // unscaled
  EXPECT_THROW(fault_rates(k, AlgorithmId::kGhz, 0.0), InvalidArgumentError);
}

TEST(FineTune, ImprovesAllAxes) {
  const auto base = base_knowledge(ModelProfile::kStarCoder3B);
  const auto tuned = apply_finetuning(base, FineTuneConfig{});
  EXPECT_GT(tuned.syntax_skill, base.syntax_skill);
  EXPECT_GT(tuned.api_recency, base.api_recency);
  for (AlgorithmId id : all_algorithms()) {
    EXPECT_GE(tuned.semantic_for(id), base.semantic_for(id));
  }
}

TEST(FineTune, MoreDataHelpsMore) {
  const auto base = base_knowledge(ModelProfile::kStarCoder3B);
  FineTuneConfig small;
  small.corpus_tokens = 500'000;
  small.upsampled_tokens = 1'500'000;
  FineTuneConfig large;
  large.corpus_tokens = 100'000'000;
  large.upsampled_tokens = 300'000'000;
  const auto tuned_small = apply_finetuning(base, small);
  const auto tuned_large = apply_finetuning(base, large);
  EXPECT_GT(tuned_large.syntax_skill, tuned_small.syntax_skill);
}

TEST(FineTune, FimOptimumAtTenPercent) {
  // The paper's measured optimum: FIM rate 0.1.
  const double at_opt = fim_quality(0.1);
  EXPECT_NEAR(at_opt, 1.0, 1e-9);
  EXPECT_LT(fim_quality(0.0), at_opt);
  EXPECT_LT(fim_quality(0.5), at_opt);
  EXPECT_LT(fim_quality(1.0), fim_quality(0.5));
  EXPECT_THROW(fim_quality(-0.1), InvalidArgumentError);
}

TEST(FineTune, DataScaleSaturates) {
  EXPECT_LT(data_scale_factor(0), 0.01);
  const double at_3m = data_scale_factor(3'000'000);
  EXPECT_GT(at_3m, 0.4);
  EXPECT_LT(at_3m, 0.65);
  EXPECT_GT(data_scale_factor(1'000'000'000), at_3m);
  EXPECT_LT(data_scale_factor(1'000'000'000), 1.0);
}

TEST(FineTune, RejectsDownsampling) {
  FineTuneConfig config;
  config.corpus_tokens = 10;
  config.upsampled_tokens = 5;
  EXPECT_THROW(
      apply_finetuning(base_knowledge(ModelProfile::kStarCoder3B), config),
      InvalidArgumentError);
}

TEST(Cot, StylesOrderedByStrength) {
  EXPECT_LT(semantic_boost(CotStyle::kZeroShot),
            semantic_boost(CotStyle::kManual));
  EXPECT_LT(semantic_boost(CotStyle::kManual),
            semantic_boost(CotStyle::kStructured));
  EXPECT_GT(scaffold_error_rate(CotStyle::kZeroShot),
            scaffold_error_rate(CotStyle::kStructured));
  EXPECT_LT(semantic_penalty(CotStyle::kManual), 0.0);
}

TEST(Cot, HandWrittenScaffoldsAlwaysFaithful) {
  TaskSpec task;
  task.algorithm = AlgorithmId::kGrover;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto scaffold = generate_scaffold(task, CotStyle::kStructured,
                                            /*hand_written=*/true, rng);
    EXPECT_TRUE(scaffold.faithful);
  }
}

TEST(Cot, GeneratedScaffoldsFailAtConfiguredRate) {
  TaskSpec task;
  task.algorithm = AlgorithmId::kQft;
  Rng rng(5);
  int unfaithful = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (!generate_scaffold(task, CotStyle::kManual, false, rng).faithful) {
      ++unfaithful;
    }
  }
  EXPECT_NEAR(static_cast<double>(unfaithful) / trials,
              scaffold_error_rate(CotStyle::kManual), 0.02);
}

TEST(PassAtK, KnownValues) {
  EXPECT_DOUBLE_EQ(pass_at_k(10, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(pass_at_k(10, 10, 1), 1.0);
  EXPECT_NEAR(pass_at_k(10, 5, 1), 0.5, 1e-12);
  // n=4, c=2, k=2: 1 - C(2,2)/C(4,2) = 1 - 1/6.
  EXPECT_NEAR(pass_at_k(4, 2, 2), 1.0 - 1.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(pass_at_k(5, 4, 2), 1.0);  // n-c < k
  EXPECT_THROW(pass_at_k(5, 6, 2), InvalidArgumentError);
  EXPECT_THROW(pass_at_k(5, 2, 6), InvalidArgumentError);
}

// --- SimLM ----------------------------------------------------------

KnowledgeState perfect_knowledge() {
  KnowledgeState k;
  k.syntax_skill = 1.0;
  k.api_recency = 1.0;
  for (AlgorithmId id : all_algorithms()) k.semantic[id] = 1.0;
  return k;
}

KnowledgeState hopeless_knowledge() {
  KnowledgeState k;
  k.syntax_skill = 0.0;
  k.api_recency = 0.0;
  for (AlgorithmId id : all_algorithms()) k.semantic[id] = 0.0;
  return k;
}

TEST(SimLM, PerfectKnowledgeEmitsGoldPrograms) {
  SimLM model(perfect_knowledge(), 42);
  TaskSpec task;
  task.algorithm = AlgorithmId::kBellPair;
  for (int i = 0; i < 20; ++i) {
    const GenerationResult result = model.generate(task, GenerationContext{});
    EXPECT_TRUE(result.faults.empty());
    const auto parsed = qasm::parse(result.source);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(qasm::analyze(*parsed.program).ok());
  }
}

TEST(SimLM, HopelessKnowledgeInjectsFaults) {
  SimLM model(hopeless_knowledge(), 43);
  TaskSpec task;
  task.algorithm = AlgorithmId::kGhz;
  task.params = {{"n", 4}};
  std::size_t total_faults = 0;
  for (int i = 0; i < 30; ++i) {
    total_faults += model.generate(task, GenerationContext{}).faults.size();
  }
  EXPECT_GT(total_faults, 30u);  // more than one fault per sample on average
}

TEST(SimLM, DeterministicGivenSeed) {
  TaskSpec task;
  task.algorithm = AlgorithmId::kQft;
  task.params = {{"n", 3}};
  SimLM a(base_knowledge(ModelProfile::kStarCoder3B), 7);
  SimLM b(base_knowledge(ModelProfile::kStarCoder3B), 7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.generate(task, GenerationContext{}).source,
              b.generate(task, GenerationContext{}).source);
  }
}

TEST(SimLM, FaultKindsHaveNames) {
  EXPECT_EQ(fault_kind_name(FaultKind::kDeprecatedImport),
            "deprecated-import");
  EXPECT_EQ(fault_kind_name(FaultKind::kWrongPlan), "wrong-plan");
}

TEST(SimLM, CotScaffoldAttachedWhenRequested) {
  SimLM model(base_knowledge(ModelProfile::kStarCoder3B), 11);
  TaskSpec task;
  task.algorithm = AlgorithmId::kGrover;
  GenerationContext ctx;
  ctx.cot = CotStyle::kStructured;
  const auto result = model.generate(task, ctx);
  ASSERT_TRUE(result.scaffold.has_value());
  EXPECT_EQ(result.scaffold->style, CotStyle::kStructured);
  const auto plain = model.generate(task, GenerationContext{});
  EXPECT_FALSE(plain.scaffold.has_value());
}

TEST(SimLM, CotImprovesSemanticAccuracyStatistically) {
  TaskSpec task;
  task.algorithm = AlgorithmId::kTeleportation;  // advanced: base is weak
  const auto count_wrong_plans = [&](bool use_cot) {
    SimLM model(base_knowledge(ModelProfile::kStarCoder3B), 13);
    GenerationContext ctx;
    if (use_cot) ctx.cot = CotStyle::kStructured;
    int wrong = 0;
    for (int i = 0; i < 200; ++i) {
      const auto result = model.generate(task, ctx);
      for (const auto& fault : result.faults) {
        if (fault.kind == FaultKind::kWrongPlan) {
          ++wrong;
          break;
        }
      }
    }
    return wrong;
  };
  EXPECT_LT(count_wrong_plans(true) + 40, count_wrong_plans(false));
}

TEST(SimLM, RepairFixesDeprecatedImportEventually) {
  // Build a result with a known deprecated-import fault and drive repair
  // until fixed; with fix probability > 0 this terminates.
  SimLM model(perfect_knowledge(), 17);
  TaskSpec task;
  task.algorithm = AlgorithmId::kBellPair;
  GenerationResult result = model.generate(task, GenerationContext{});
  qasm::Program faulted = *result.ast;
  faulted.imports.push_back(qasm::Import{"qiskit.aqua", 0});
  result.ast = std::make_shared<const qasm::Program>(std::move(faulted));
  result.faults.push_back(Fault{FaultKind::kDeprecatedImport, "qiskit.aqua", 0});
  result.source = qasm::print_program(*result.ast);

  bool fixed = false;
  for (int pass = 1; pass <= 60 && !fixed; ++pass) {
    const auto parsed = qasm::parse(result.source);
    ASSERT_TRUE(parsed.ok());
    const auto report = qasm::analyze(*parsed.program);
    if (report.ok()) {
      fixed = true;
      break;
    }
    result = model.repair(task, result, report.diagnostics, false,
                          GenerationContext{}, 1);
  }
  EXPECT_TRUE(fixed);
}

TEST(SimLM, StubbornOnSemanticFailure) {
  // With clean diagnostics and a semantic failure, most repair passes
  // return the same program (the model has no new information).
  SimLM model(base_knowledge(ModelProfile::kStarCoder3B), 19);
  TaskSpec task;
  task.algorithm = AlgorithmId::kQuantumWalk;
  const GenerationResult first = model.generate(task, GenerationContext{});
  int unchanged = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto repaired =
        model.repair(task, first, {}, /*semantic_failure=*/true,
                     GenerationContext{}, 1);
    if (repaired.source == first.source) ++unchanged;
  }
  EXPECT_GT(unchanged, trials / 2);
}

TEST(SimLM, ReusedGoldSourcesAreByteIdenticalToFreshPrints) {
  // Generation and repair reuse the shared gold entry's printed source
  // whenever they emit the entry's own program object. Every such source
  // must be exactly what printing the emitted AST gives.
  std::size_t reused = 0;
  std::size_t repairs = 0;
  for (const AlgorithmId id : all_algorithms()) {
    TaskSpec task;
    task.algorithm = id;
    GenerationContext context;
    context.gold = shared_gold(task);
    SimLM model(base_knowledge(ModelProfile::kStarCoder3B), 61);
    for (int sample = 0; sample < 12; ++sample) {
      const GenerationResult result = model.generate(task, context);
      const bool corrupted = std::any_of(
          result.faults.begin(), result.faults.end(), [](const Fault& f) {
            return f.kind == FaultKind::kParseCorruption;
          });
      if (corrupted) continue;
      EXPECT_EQ(result.source, qasm::print_program(*result.ast))
          << algorithm_name(id);
      if (result.ast.get() == &context.gold->program) ++reused;
      const auto parsed = qasm::parse(result.source);
      ASSERT_TRUE(parsed.ok());
      const GenerationResult next =
          model.repair(task, result, qasm::analyze(*parsed.program).diagnostics,
                       false, context, 1);
      if (std::none_of(next.faults.begin(), next.faults.end(),
                       [](const Fault& f) {
                         return f.kind == FaultKind::kParseCorruption;
                       })) {
        ++repairs;
        EXPECT_EQ(next.source, qasm::print_program(*next.ast))
            << algorithm_name(id);
      }
    }
  }
  EXPECT_GT(reused, 0u);
  EXPECT_GT(repairs, 0u);
}

TEST(SimLM, UntouchedPlanEmitsTheEntrySource) {
  // The reuse is by object identity: a plan no fault wrote to is emitted
  // with its entry's source as given, without printing the program.
  TaskSpec task;
  task.algorithm = AlgorithmId::kBellPair;
  GenerationContext context;
  context.gold = std::make_shared<const GoldProgram>(
      GoldProgram{gold_program(task), "the entry's source"});
  SimLM model(perfect_knowledge(), 42);
  const GenerationResult result = model.generate(task, context);
  ASSERT_TRUE(result.faults.empty());
  EXPECT_EQ(result.ast.get(), &context.gold->program);
  EXPECT_EQ(result.source, "the entry's source");
}

TEST(SimLM, RepairProbabilitiesReflectPaperFindings) {
  // Deprecated imports are the most repair-resistant syntactic class.
  EXPECT_LT(repair_success_probability(qasm::DiagCode::kDeprecatedImport),
            repair_success_probability(qasm::DiagCode::kParseError));
  EXPECT_LT(repair_success_probability(qasm::DiagCode::kDeprecatedImport),
            repair_success_probability(qasm::DiagCode::kQubitOutOfRange));
  EXPECT_LE(semantic_replan_probability(1), 0.1);
}

TEST(Tasks, PromptsAreDistinctAndNonEmpty) {
  std::set<std::string> prompts;
  for (AlgorithmId id : all_algorithms()) {
    TaskSpec task;
    task.algorithm = id;
    const std::string prompt = prompt_text(task);
    EXPECT_FALSE(prompt.empty());
    prompts.insert(prompt);
  }
  EXPECT_EQ(prompts.size(), all_algorithms().size());
}

TEST(Tasks, SpecIdEncodesParams) {
  TaskSpec task;
  task.algorithm = AlgorithmId::kGrover;
  task.params = {{"n", 3}, {"marked", 5}};
  EXPECT_EQ(task.id(), "grover(marked=5,n=3)");
  EXPECT_EQ(task.iparam("n", 0), 3);
  EXPECT_EQ(task.iparam("missing", 7), 7);
  EXPECT_NEAR(task.param("marked", 0.0), 5.0, 1e-12);
}

}  // namespace
}  // namespace qcgen::llm
