#pragma once
// Per-technique state every trial or request of a run reads: the
// fine-tuned knowledge profile, the RAG vector stores and the run's
// retrieval memo.
//
// The knowledge state and the stores are immutable and depend on the
// configuration alone, so they come from process-wide tables
// (technique_resources.cpp): each distinct (profile, fine-tuning) state
// and each distinct (corpus, chunking, staleness) store is built once per
// process, on first use, and shared by every handle after that. A handle
// is therefore cheap to construct; what it owns is the retrieval memo of
// the one run it serves (an eval matrix or a server), handed to each
// query through llm::GenerationContext, so memo counters stay per run.

#include <cstdint>
#include <memory>

#include "llm/knowledge.hpp"
#include "llm/vectorstore.hpp"

namespace qcgen::agents {

struct TechniqueConfig;

class TechniqueResources {
 public:
  /// Knowledge and stores for `config` exactly as a standalone
  /// CodeGenAgent would read them; stores only for enabled RAG corpora.
  /// `retrieval_cache`, when given, memoizes this run's BM25 queries.
  explicit TechniqueResources(
      const TechniqueConfig& config,
      std::shared_ptr<llm::RetrievalCache> retrieval_cache = nullptr);

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
  /// The run's retrieval memo; nullptr queries the stores uncached.
  llm::RetrievalCache* retrieval_cache() const noexcept {
    return retrieval_cache_.get();
  }

 private:
  std::shared_ptr<const llm::KnowledgeState> knowledge_;
  std::uint64_t knowledge_version_ = 0;
  std::shared_ptr<const llm::VectorStore> api_store_;
  std::shared_ptr<const llm::VectorStore> guide_store_;
  std::shared_ptr<llm::RetrievalCache> retrieval_cache_;
};

}  // namespace qcgen::agents
