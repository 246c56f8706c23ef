#include "agents/technique_resources.hpp"

#include "agents/codegen_agent.hpp"
#include "common/cache/hash.hpp"
#include "llm/corpus.hpp"
#include "llm/finetune.hpp"

namespace qcgen::agents {

namespace {

// Process-wide tables of the configuration-only inputs. Each is keyed by
// exactly the fields that build its value, unbounded (an entry per
// distinct configuration, held for the process's life) and single-flight,
// so racing first uses build one value. Building records no trace data
// and trips no fail point, so which run fills an entry is invisible.

std::shared_ptr<const llm::KnowledgeState> shared_knowledge_for(
    const TechniqueConfig& config) {
  static cache::Cache<llm::KnowledgeState> table(cache::CacheOptions{});
  cache::KeyHasher key;
  key.mix(static_cast<std::uint64_t>(config.profile)).mix(config.fine_tuned);
  if (config.fine_tuned) {
    const llm::FineTuneConfig& finetune = config.finetune;
    key.mix(static_cast<std::uint64_t>(finetune.corpus_tokens));
    key.mix(static_cast<std::uint64_t>(finetune.upsampled_tokens));
    key.mix(finetune.official_source_weight).mix(finetune.fim_rate);
    key.mix(static_cast<std::uint64_t>(finetune.steps));
    key.mix(static_cast<std::uint64_t>(finetune.batch_size));
    key.mix(finetune.peak_learning_rate);
  }
  return table.get_or_compute(key.digest(), [&] {
    return config.fine_tuned
               ? llm::apply_finetuning(llm::base_knowledge(config.profile),
                                       config.finetune)
               : llm::base_knowledge(config.profile);
  });
}

enum class Corpus : std::uint64_t { kQiskitApi, kAlgorithmGuides };

std::shared_ptr<const llm::VectorStore> shared_store(
    Corpus corpus, llm::ChunkStrategy chunking, double api_stale_fraction) {
  static cache::Cache<llm::VectorStore> table(cache::CacheOptions{});
  cache::KeyHasher key;
  key.mix(static_cast<std::uint64_t>(corpus));
  key.mix(static_cast<std::uint64_t>(chunking));
  if (corpus == Corpus::kQiskitApi) key.mix(api_stale_fraction);
  return table.get_or_compute(key.digest(), [&] {
    return llm::VectorStore(llm::chunk_documents(
        corpus == Corpus::kQiskitApi
            ? llm::qiskit_api_corpus(api_stale_fraction)
            : llm::algorithm_guide_corpus(),
        chunking));
  });
}

}  // namespace

TechniqueResources::TechniqueResources(
    const TechniqueConfig& config,
    std::shared_ptr<llm::RetrievalCache> retrieval_cache)
    : knowledge_(shared_knowledge_for(config)),
      knowledge_version_(llm::knowledge_digest(*knowledge_)),
      retrieval_cache_(std::move(retrieval_cache)) {
  if (config.rag_api) {
    api_store_ = shared_store(Corpus::kQiskitApi, config.chunking,
                              config.api_stale_fraction);
  }
  if (config.rag_guides) {
    guide_store_ = shared_store(Corpus::kAlgorithmGuides, config.chunking,
                                config.api_stale_fraction);
  }
}

}  // namespace qcgen::agents
