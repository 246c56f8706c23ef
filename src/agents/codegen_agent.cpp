#include "agents/codegen_agent.hpp"

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"

namespace qcgen::agents {

std::string TechniqueConfig::label() const {
  std::string out = fine_tuned ? "ft" : "base";
  if (rag_api || rag_guides) out += "+rag";
  if (cot.has_value()) {
    out += cot == llm::CotStyle::kStructured ? "+scot" : "+cot";
  }
  if (max_passes > 1) out += "+mp" + std::to_string(max_passes);
  return out;
}

TechniqueConfig TechniqueConfig::base(llm::ModelProfile profile) {
  TechniqueConfig c;
  c.profile = profile;
  return c;
}

TechniqueConfig TechniqueConfig::fine_tuned_only(llm::ModelProfile profile) {
  TechniqueConfig c = base(profile);
  c.fine_tuned = true;
  return c;
}

TechniqueConfig TechniqueConfig::with_rag(llm::ModelProfile profile) {
  TechniqueConfig c = fine_tuned_only(profile);
  c.rag_api = true;
  c.rag_guides = true;
  return c;
}

TechniqueConfig TechniqueConfig::with_cot(llm::ModelProfile profile) {
  TechniqueConfig c = fine_tuned_only(profile);
  c.cot = llm::CotStyle::kManual;
  return c;
}

TechniqueConfig TechniqueConfig::with_scot(llm::ModelProfile profile) {
  TechniqueConfig c = fine_tuned_only(profile);
  c.cot = llm::CotStyle::kStructured;
  return c;
}

TechniqueConfig TechniqueConfig::with_multipass(llm::ModelProfile profile,
                                                int passes) {
  TechniqueConfig c = fine_tuned_only(profile);
  c.max_passes = passes;
  return c;
}

std::uint64_t technique_digest(const TechniqueConfig& config) noexcept {
  cache::KeyHasher hasher;
  hasher.mix(static_cast<std::uint64_t>(config.profile));
  hasher.mix(config.fine_tuned);
  hasher.mix(static_cast<std::uint64_t>(config.finetune.corpus_tokens));
  hasher.mix(static_cast<std::uint64_t>(config.finetune.upsampled_tokens));
  hasher.mix(config.finetune.official_source_weight);
  hasher.mix(config.finetune.fim_rate);
  hasher.mix(static_cast<std::uint64_t>(config.finetune.steps));
  hasher.mix(static_cast<std::uint64_t>(config.finetune.batch_size));
  hasher.mix(config.finetune.peak_learning_rate);
  hasher.mix(config.rag_api).mix(config.rag_guides);
  hasher.mix(static_cast<std::uint64_t>(config.chunking));
  hasher.mix(config.api_stale_fraction);
  hasher.mix(static_cast<std::uint64_t>(config.rag_top_k));
  hasher.mix(config.cot.has_value());
  if (config.cot.has_value()) {
    hasher.mix(static_cast<std::uint64_t>(*config.cot));
  }
  hasher.mix(static_cast<std::uint64_t>(config.cot_hand_written));
  hasher.mix(static_cast<std::uint64_t>(config.max_passes));
  hasher.mix(config.syntax_difficulty);
  return hasher.digest();
}

namespace {
const std::shared_ptr<const llm::KnowledgeState>& checked_knowledge(
    const std::shared_ptr<const TechniqueResources>& resources) {
  require(resources != nullptr, "CodeGenAgent: null resources");
  return resources->shared_knowledge();
}
}  // namespace

CodeGenAgent::CodeGenAgent(const TechniqueConfig& config, std::uint64_t seed)
    : CodeGenAgent(config, std::make_shared<const TechniqueResources>(config),
                   seed) {}

CodeGenAgent::CodeGenAgent(
    const TechniqueConfig& config,
    std::shared_ptr<const TechniqueResources> resources, std::uint64_t seed)
    : config_(config),
      resources_(std::move(resources)),
      model_(checked_knowledge(resources_), seed) {
  require(config.max_passes >= 1, "CodeGenAgent: max_passes >= 1");
}

namespace {
/// Deterministic output corruption for the `llm.generate` corrupt action:
/// flips a few characters to syntactically hostile noise so downstream
/// parsing/analysis sees a realistically mangled sample.
void corrupt_source(std::string& source, std::uint64_t seed) {
  Rng rng(seed);
  if (source.empty()) {
    source = "?";
    return;
  }
  static constexpr char kNoise[] = "#$%&!?~^";
  const std::uint64_t edits = 1 + rng.uniform_int(std::uint64_t{3});
  for (std::uint64_t i = 0; i < edits; ++i) {
    source[rng.uniform_int(static_cast<std::uint64_t>(source.size()))] =
        kNoise[rng.uniform_int(sizeof kNoise - 1)];
  }
}
}  // namespace

llm::GenerationContext CodeGenAgent::make_context(
    std::size_t prompt_index, bool use_rag,
    const std::shared_ptr<const llm::GoldProgram>& gold) const {
  llm::GenerationContext ctx;
  ctx.api_store = use_rag ? resources_->api_store() : nullptr;
  ctx.guide_store = use_rag ? resources_->guide_store() : nullptr;
  ctx.retrieval_cache = resources_->retrieval_cache();
  ctx.rag_top_k = config_.rag_top_k;
  ctx.cot = config_.cot;
  ctx.cot_hand_written = prompt_index < config_.cot_hand_written;
  ctx.syntax_difficulty = config_.syntax_difficulty;
  ctx.gold = gold;
  return ctx;
}

void CodeGenAgent::set_content_addressed(
    std::shared_ptr<GenerationCache> cache) {
  content_addressed_ = true;
  generation_cache_ = std::move(cache);
}

std::uint64_t CodeGenAgent::generation_key(const llm::TaskSpec& task,
                                           std::size_t prompt_index,
                                           bool use_rag) const {
  cache::KeyHasher hasher;
  hasher.mix(llm::prompt_text(task)).mix(task.id());
  // Only the hand-written-scaffold *decision* feeds generation, not the
  // raw prompt index — identical prompts past the hand-written window
  // share a key.
  hasher.mix(prompt_index < config_.cot_hand_written);
  hasher.mix(use_rag);
  hasher.mix(technique_digest(config_));
  hasher.mix(resources_->knowledge_version());
  return hasher.digest();
}

llm::GenerationResult CodeGenAgent::generate_content(
    const llm::TaskSpec& task, std::size_t prompt_index, bool use_rag,
    const std::shared_ptr<const llm::GoldProgram>& gold,
    std::uint64_t key) const {
  // The drawing model is seeded from the content key, never from the
  // agent's per-request stream: whichever request computes this entry,
  // the sample comes out byte-identical.
  std::uint64_t state = key ^ 0x5bf0f5d44c3e91a7ULL;
  llm::SimLM model(resources_->shared_knowledge(), splitmix64(state));
  return model.generate(task, make_context(prompt_index, use_rag, gold));
}

llm::GenerationResult CodeGenAgent::generate(
    const llm::TaskSpec& task, std::size_t prompt_index, bool use_rag,
    const std::shared_ptr<const llm::GoldProgram>& gold) {
  // Trip before the model draws, so an injected error leaves the model's
  // RNG stream untouched and a retry regenerates identically. In
  // content-addressed mode the corrupt action mutates this request's
  // copy only — a poisoned sample is never what gets cached.
  const auto hit = failpoint::trip("llm.generate", 0);
  llm::GenerationResult result;
  if (content_addressed_) {
    const std::uint64_t key = generation_key(task, prompt_index, use_rag);
    if (generation_cache_ != nullptr) {
      result = *generation_cache_->get_or_compute(key, [&] {
        return generate_content(task, prompt_index, use_rag, gold, key);
      });
    } else {
      result = generate_content(task, prompt_index, use_rag, gold, key);
    }
  } else {
    result = model_.generate(task, make_context(prompt_index, use_rag, gold));
  }
  if (hit.has_value() && hit->action == failpoint::Action::kCorrupt) {
    corrupt_source(result.source, hit->corrupt_seed);
  }
  return result;
}

llm::GenerationResult CodeGenAgent::repair(
    const llm::TaskSpec& task, const llm::GenerationResult& previous,
    const std::vector<qasm::Diagnostic>& diagnostics, bool semantic_failure,
    std::size_t prompt_index, int pass_number, bool use_rag,
    const std::shared_ptr<const llm::GoldProgram>& gold) {
  const auto hit = failpoint::trip("llm.generate", pass_number);
  llm::GenerationResult result =
      model_.repair(task, previous, diagnostics, semantic_failure,
                    make_context(prompt_index, use_rag, gold), pass_number);
  if (hit.has_value() && hit->action == failpoint::Action::kCorrupt) {
    corrupt_source(result.source, hit->corrupt_seed);
  }
  return result;
}

}  // namespace qcgen::agents
