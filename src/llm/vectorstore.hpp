#pragma once
// Chunking + BM25 retrieval: the vector-store half of the RAG pipeline
// (paper Sec IV-C, built there with langchain/ragatouille).
//
// Two chunkers are provided: the "basic" fixed-window splitter the paper
// used (and blamed for part of RAG's weakness), and a structure-aware
// splitter that respects sentence boundaries — the ABL-RAG ablation
// compares them.
//
// Scoring is BM25 (k1 = 1.5, b = 0.75, BM25+ idf smoothing) over an
// inverted index. The constructor tokenizes each chunk once, interns
// its terms and appends one (chunk, tf) posting per distinct term, so a
// term's postings are in chunk order and its df is their count. Each
// chunk's length norm and each term's idf are computed there too. A
// query walks the postings of its tokens in query order, duplicates
// included, adding idf * tf * (k1 + 1) / (tf + norm) into a dense
// per-chunk accumulator.
//
// The scores are bit-identical to a scan that sums every query token's
// term over every chunk. Each chunk's sum adds the same terms in the same
// order with the same expression; the scan's extra terms are the +0.0 of
// tokens absent from the chunk, and since every term is positive (idf > 0)
// the sum is never -0.0, so adding +0.0 leaves it unchanged.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cache/cache.hpp"
#include "llm/corpus.hpp"
#include "llm/tokenizer.hpp"

namespace qcgen::llm {

/// One retrievable chunk.
struct Chunk {
  std::string doc_id;
  std::string text;
  DocFreshness freshness = DocFreshness::kCurrent;
  std::optional<AlgorithmId> algorithm;
};

enum class ChunkStrategy {
  kBasic,           ///< fixed token windows, ignores structure (paper's)
  kStructureAware,  ///< splits on sentence boundaries, keeps units intact
};

/// Splits documents into chunks of roughly `window` tokens.
std::vector<Chunk> chunk_documents(const std::vector<Document>& docs,
                                   ChunkStrategy strategy,
                                   std::size_t window = 48);

/// A scored retrieval hit.
struct Retrieved {
  const Chunk* chunk = nullptr;
  double score = 0.0;
};

/// A hit in store-independent form — what the retrieval cache stores
/// (chunk pointers would dangle across stores; indices rebind cheaply).
struct ScoredIndex {
  std::size_t index = 0;
  double score = 0.0;
  friend bool operator==(const ScoredIndex&, const ScoredIndex&) = default;
};

/// Shared memoization layer for BM25 queries, keyed on
/// hash(corpus version, query, k); see VectorStore::attach_cache.
using RetrievalCache = cache::Cache<std::vector<ScoredIndex>>;

/// BM25 index over chunks.
class VectorStore {
 public:
  explicit VectorStore(std::vector<Chunk> chunks);

  std::size_t size() const noexcept { return chunks_.size(); }
  const std::vector<Chunk>& chunks() const noexcept { return chunks_; }

  /// Content digest of the indexed corpus. Folded into every retrieval
  /// cache key, so re-indexing a changed corpus (a "corpus version
  /// bump") invalidates by key divergence — stale entries from the old
  /// corpus can never be returned for the new one.
  std::uint64_t content_version() const noexcept { return content_version_; }

  /// Attaches a shared retrieval cache (null detaches). Retrieval is a
  /// pure function of (corpus, query, k), so memoization is invisible to
  /// callers; the cache may be shared across stores because keys carry
  /// each store's content_version().
  void attach_cache(std::shared_ptr<RetrievalCache> cache) noexcept {
    cache_ = std::move(cache);
  }

  /// Top-k chunks for a query, highest score first. Scores <= 0 are
  /// dropped, so the result may be shorter than k. Equal-score hits are
  /// ordered by chunk index — a stable, deterministic tie-break.
  std::vector<Retrieved> retrieve(const std::string& query,
                                  std::size_t k) const;

 private:
  /// One chunk containing a term, with the term's count in it.
  struct Posting {
    std::uint32_t chunk = 0;
    std::uint32_t tf = 0;
  };
  struct Term {
    std::vector<Posting> postings;  ///< ascending chunk index
    double idf = 0.0;
  };

  std::vector<ScoredIndex> retrieve_uncached(const std::string& query,
                                             std::size_t k) const;

  std::vector<Chunk> chunks_;
  std::unordered_map<std::string, std::uint32_t> term_ids_;
  std::vector<Term> terms_;   ///< indexed by term id
  std::vector<double> norm_;  ///< per chunk: k1 * (1 - b + b * len / avg)
  std::uint64_t content_version_ = 0;
  std::shared_ptr<RetrievalCache> cache_;
};

}  // namespace qcgen::llm
