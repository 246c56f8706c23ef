#include "agents/technique_resources.hpp"

#include "agents/codegen_agent.hpp"
#include "llm/corpus.hpp"
#include "llm/finetune.hpp"

namespace qcgen::agents {

TechniqueResources::TechniqueResources(const TechniqueConfig& config)
    : knowledge_(std::make_shared<const llm::KnowledgeState>(
          config.fine_tuned
              ? llm::apply_finetuning(llm::base_knowledge(config.profile),
                                      config.finetune)
              : llm::base_knowledge(config.profile))),
      knowledge_version_(llm::knowledge_digest(*knowledge_)) {
  if (config.rag_api) {
    api_store_ = std::make_unique<llm::VectorStore>(
        llm::chunk_documents(llm::qiskit_api_corpus(config.api_stale_fraction),
                             config.chunking));
  }
  if (config.rag_guides) {
    guide_store_ = std::make_unique<llm::VectorStore>(
        llm::chunk_documents(llm::algorithm_guide_corpus(), config.chunking));
  }
}

void TechniqueResources::enable_retrieval_cache(
    std::shared_ptr<llm::RetrievalCache> cache) {
  if (api_store_ != nullptr) api_store_->attach_cache(cache);
  if (guide_store_ != nullptr) guide_store_->attach_cache(std::move(cache));
}

}  // namespace qcgen::agents
