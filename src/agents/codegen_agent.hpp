#pragma once
// Code Generation Agent (paper Sec III-A, first agent).
//
// Wraps the (simulated) fine-tuned model together with its inference-time
// technique stack: RAG vector stores, CoT/SCoT scaffolding and the
// technique configuration under evaluation.

#include <memory>
#include <optional>
#include <string>

#include "agents/technique_resources.hpp"
#include "common/cache/cache.hpp"
#include "llm/cot.hpp"
#include "llm/finetune.hpp"
#include "llm/knowledge.hpp"
#include "llm/simlm.hpp"
#include "llm/tasks.hpp"
#include "llm/vectorstore.hpp"

namespace qcgen::agents {

/// Full configuration of a code-generation setup under evaluation; one
/// TechniqueConfig corresponds to one bar of Fig 3 / one row of Table I.
struct TechniqueConfig {
  llm::ModelProfile profile = llm::ModelProfile::kStarCoder3B;
  bool fine_tuned = false;
  llm::FineTuneConfig finetune;  ///< used when fine_tuned
  bool rag_api = false;
  bool rag_guides = false;
  llm::ChunkStrategy chunking = llm::ChunkStrategy::kBasic;
  double api_stale_fraction = 0.35;
  std::size_t rag_top_k = 4;
  std::optional<llm::CotStyle> cot;
  /// The first N suite prompts carry hand-written scaffolds (Sec IV-C).
  std::size_t cot_hand_written = 5;
  int max_passes = 1;  ///< 1 = single-shot; >1 enables multi-pass repair
  double syntax_difficulty = 1.0;

  /// Display label, e.g. "ft+scot" or "base".
  std::string label() const;

  // Named presets matching the paper's evaluated configurations.
  static TechniqueConfig base(llm::ModelProfile profile);
  static TechniqueConfig fine_tuned_only(llm::ModelProfile profile);
  static TechniqueConfig with_rag(llm::ModelProfile profile);
  static TechniqueConfig with_cot(llm::ModelProfile profile);
  static TechniqueConfig with_scot(llm::ModelProfile profile);
  static TechniqueConfig with_multipass(llm::ModelProfile profile,
                                        int passes);
};

/// Stable digest of every generation-relevant technique field; one
/// component of the generation cache key, so two agents sharing a cache
/// but differing in any configuration knob can never alias entries.
std::uint64_t technique_digest(const TechniqueConfig& config) noexcept;

/// Memoization layer for generation, keyed on
/// hash(prompt, technique, knowledge-version); see
/// CodeGenAgent::set_content_addressed.
using GenerationCache = cache::Cache<llm::GenerationResult>;

/// The agent: owns the model instance and reads the technique's shared
/// knowledge and retrieval indexes through a TechniqueResources handle.
class CodeGenAgent {
 public:
  /// Standalone: a TechniqueResources handle of its own for `config`,
  /// over the process-wide knowledge and stores, with no retrieval cache.
  CodeGenAgent(const TechniqueConfig& config, std::uint64_t seed);

  /// Shares a run's resource handle with its sibling agents; only the
  /// SimLM (its RNG stream) is per-agent, which is
  /// what makes per-trial agents cheap enough to construct inside a
  /// parallel trial scheduler. Generates identically to a standalone
  /// agent with the same config and seed.
  CodeGenAgent(const TechniqueConfig& config,
               std::shared_ptr<const TechniqueResources> resources,
               std::uint64_t seed);

  const TechniqueConfig& config() const noexcept { return config_; }
  const llm::KnowledgeState& knowledge() const { return model_.knowledge(); }

  /// Content-addressed mode (the serving path): generate() becomes a
  /// pure function of its cache key — the SimLM that draws the sample is
  /// seeded from hash(prompt, technique, knowledge-version) instead of
  /// the agent's per-request stream — which is exactly what makes a
  /// cache hit byte-identical to the miss that populated it. `cache`
  /// may be null: the computation stays content-addressed but nothing
  /// is memoized (the certification bypass tests re-run served results
  /// through). Off by default, so eval trial matrices are untouched.
  /// repair() always runs on the per-agent stream (repairs depend on
  /// the previous artifact and pass number; they are not memoized).
  void set_content_addressed(std::shared_ptr<GenerationCache> cache);

  /// The generation cache key for one request in content-addressed mode.
  std::uint64_t generation_key(const llm::TaskSpec& task,
                               std::size_t prompt_index, bool use_rag) const;

  /// Generates one program sample. `prompt_index` selects hand-written
  /// vs. generated CoT scaffolds. `use_rag = false` bypasses the vector
  /// stores — the pipeline's degraded rung when retrieval is down.
  /// `gold`, when given, is the task's gold entry
  /// (GenerationContext::gold); output is identical either way.
  llm::GenerationResult generate(
      const llm::TaskSpec& task, std::size_t prompt_index, bool use_rag = true,
      const std::shared_ptr<const llm::GoldProgram>& gold = nullptr);

  /// Repair pass (multi-pass inference).
  llm::GenerationResult repair(
      const llm::TaskSpec& task, const llm::GenerationResult& previous,
      const std::vector<qasm::Diagnostic>& diagnostics, bool semantic_failure,
      std::size_t prompt_index, int pass_number, bool use_rag = true,
      const std::shared_ptr<const llm::GoldProgram>& gold = nullptr);

 private:
  llm::GenerationContext make_context(
      std::size_t prompt_index, bool use_rag,
      const std::shared_ptr<const llm::GoldProgram>& gold) const;
  /// The pure content-addressed computation behind a cache miss.
  llm::GenerationResult generate_content(
      const llm::TaskSpec& task, std::size_t prompt_index, bool use_rag,
      const std::shared_ptr<const llm::GoldProgram>& gold,
      std::uint64_t key) const;

  TechniqueConfig config_;
  std::shared_ptr<const TechniqueResources> resources_;
  llm::SimLM model_;
  bool content_addressed_ = false;
  std::shared_ptr<GenerationCache> generation_cache_;
};

}  // namespace qcgen::agents
