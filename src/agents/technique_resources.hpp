#pragma once
// Immutable, shareable per-technique state: the fine-tuned knowledge
// profile and the RAG vector stores.
//
// Building these is the expensive part of standing up a CodeGenAgent
// (corpus synthesis, chunking, BM25 indexing); everything in here is
// read-only after construction, so one build can back any number of
// per-trial agents across worker threads (VectorStore::retrieve is
// const, and every SimLM reads the one KnowledgeState through a shared
// pointer instead of copying it). The one
// post-construction hook is enable_retrieval_cache — the serving layer
// and eval::run_trial_matrix call it before sharing the bundle as const,
// attaching a thread-safe memoization layer that does not change
// retrieval results.

#include <cstdint>
#include <memory>

#include "llm/knowledge.hpp"
#include "llm/vectorstore.hpp"

namespace qcgen::agents {

struct TechniqueConfig;

class TechniqueResources {
 public:
  /// Builds knowledge + stores for `config` exactly as a standalone
  /// CodeGenAgent would; stores are only built for enabled RAG corpora.
  explicit TechniqueResources(const TechniqueConfig& config);

  const llm::KnowledgeState& knowledge() const noexcept { return *knowledge_; }
  /// The same state as a shared handle, for SimLMs that read it in place.
  const std::shared_ptr<const llm::KnowledgeState>& shared_knowledge()
      const noexcept {
    return knowledge_;
  }
  /// Content digest of the knowledge state (cache invalidation input:
  /// generation keys fold it in, so retuning the model bumps every key).
  std::uint64_t knowledge_version() const noexcept {
    return knowledge_version_;
  }
  /// nullptr when the corresponding RAG corpus is disabled.
  const llm::VectorStore* api_store() const noexcept {
    return api_store_.get();
  }
  const llm::VectorStore* guide_store() const noexcept {
    return guide_store_.get();
  }

  /// Attaches one shared retrieval cache to both stores (keys carry each
  /// store's corpus version, so sharing is collision-safe). Call before
  /// the bundle is shared across threads; memoization never changes
  /// retrieval results, only the work done to produce them.
  void enable_retrieval_cache(std::shared_ptr<llm::RetrievalCache> cache);

 private:
  std::shared_ptr<const llm::KnowledgeState> knowledge_;
  std::uint64_t knowledge_version_ = 0;
  std::unique_ptr<llm::VectorStore> api_store_;
  std::unique_ptr<llm::VectorStore> guide_store_;
};

}  // namespace qcgen::agents
