// Tests for the tokenizer, corpora, chunking and BM25 vector store.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "agents/codegen_agent.hpp"
#include "agents/technique_resources.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "eval/suite.hpp"
#include "llm/corpus.hpp"
#include "llm/tasks.hpp"
#include "llm/tokenizer.hpp"
#include "llm/vectorstore.hpp"

namespace qcgen::llm {
namespace {

// The BM25 scan the postings index replaced, kept as the oracle the store
// must match bit for bit: a per-document df set, tf by string compare
// against every chunk token, every query token scored against every
// chunk, then a full sort and a top-k cut.
class ScanOracle {
 public:
  explicit ScanOracle(const std::vector<Chunk>& chunks) {
    double total_len = 0.0;
    for (const Chunk& c : chunks) {
      std::set<std::string> unique;
      for (const std::string& t : tokenize(c.text)) unique.insert(t);
      for (const std::string& t : unique) ++df_[t];
      chunk_tokens_.push_back(tokenize(c.text));
      chunk_len_.push_back(static_cast<double>(chunk_tokens_.back().size()));
      total_len += chunk_len_.back();
    }
    avg_len_ = total_len / static_cast<double>(chunks.size());
  }

  std::size_t document_frequency(const std::string& token) const {
    const auto it = df_.find(token);
    return it == df_.end() ? 0 : it->second;
  }

  double idf(const std::string& token) const {
    const double n = static_cast<double>(chunk_tokens_.size());
    const double df = static_cast<double>(document_frequency(token));
    return std::log((n - df + 0.5) / (df + 0.5) + 1.0);
  }

  std::vector<ScoredIndex> retrieve(const std::string& query,
                                    std::size_t k) const {
    const auto query_tokens = tokenize(query);
    std::vector<ScoredIndex> hits;
    for (std::size_t i = 0; i < chunk_tokens_.size(); ++i) {
      double s = 0.0;
      for (const std::string& qt : query_tokens) s += score(qt, i);
      if (s > 0.0) hits.push_back(ScoredIndex{i, s});
    }
    std::sort(hits.begin(), hits.end(),
              [](const ScoredIndex& a, const ScoredIndex& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.index < b.index;
              });
    if (hits.size() > k) hits.resize(k);
    return hits;
  }

 private:
  double score(const std::string& query_token, std::size_t i) const {
    constexpr double k1 = 1.5;
    constexpr double b = 0.75;
    std::size_t tf = 0;
    for (const std::string& t : chunk_tokens_[i]) {
      if (t == query_token) ++tf;
    }
    if (tf == 0) return 0.0;
    const double norm = k1 * (1.0 - b + b * chunk_len_[i] / avg_len_);
    return idf(query_token) * (static_cast<double>(tf) * (k1 + 1.0)) /
           (static_cast<double>(tf) + norm);
  }

  std::map<std::string, std::size_t> df_;
  std::vector<std::vector<std::string>> chunk_tokens_;
  std::vector<double> chunk_len_;
  double avg_len_ = 0.0;
};

// Compares store and oracle hits for every (query, k), index and score
// bit pattern; adds the number of (query, k) pairs compared to `checks`.
void expect_matches_oracle(const VectorStore& store, const ScanOracle& oracle,
                           const std::vector<std::string>& queries,
                           const std::vector<std::size_t>& ks,
                           std::size_t& checks) {
  for (const std::string& query : queries) {
    for (const std::size_t k : ks) {
      const auto got = store.retrieve(query, k);
      const auto want = oracle.retrieve(query, k);
      ++checks;
      ASSERT_EQ(got.size(), want.size()) << query << " k=" << k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(got[i].chunk - store.chunks().data()),
                  want[i].index)
            << query << " k=" << k << " rank " << i;
        EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
            << query << " k=" << k << " rank " << i << ": " << got[i].score
            << " vs " << want[i].score;
      }
    }
  }
}

TEST(Tokenizer, LowercasesAndSplits) {
  const auto tokens = tokenize("Apply a Hadamard, then CX!");
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "hadamard"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "cx"), tokens.end());
  EXPECT_EQ(std::find(tokens.begin(), tokens.end(), "Apply"), tokens.end());
}

TEST(Tokenizer, DottedIdentifiersKeepWholeAndParts) {
  const auto tokens = tokenize("import qiskit_ibm_runtime;");
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "qiskit_ibm_runtime"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "runtime"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "qiskit"), tokens.end());
}

TEST(Tokenizer, CountTokens) {
  EXPECT_EQ(count_tokens(""), 0u);
  EXPECT_EQ(count_tokens("one two three"), 3u);
}

std::vector<Chunk> text_chunks(const std::vector<std::string>& texts) {
  std::vector<Chunk> chunks;
  for (const std::string& text : texts) {
    Chunk c;
    c.doc_id = "d" + std::to_string(chunks.size());
    c.text = text;
    chunks.push_back(std::move(c));
  }
  return chunks;
}

TEST(VectorStore, DocumentFrequencyAndIdfMatchOracle) {
  const auto chunks = text_chunks({"alpha beta", "alpha gamma"});
  const ScanOracle oracle(chunks);
  EXPECT_EQ(oracle.document_frequency("alpha"), 2u);
  EXPECT_EQ(oracle.document_frequency("beta"), 1u);
  EXPECT_EQ(oracle.document_frequency("missing"), 0u);
  EXPECT_GT(oracle.idf("beta"), oracle.idf("alpha"));
  const VectorStore store(chunks);
  std::size_t checks = 0;
  expect_matches_oracle(store, oracle,
                        {"alpha", "beta", "gamma", "missing", "alpha beta",
                         "beta alpha gamma", "alpha alpha beta"},
                        {1, 2, 3}, checks);
  EXPECT_EQ(checks, 21u);
  // The rarer term outscores the common one on the chunk holding both.
  const auto beta = store.retrieve("beta", 1);
  const auto alpha = store.retrieve("alpha", 1);
  ASSERT_EQ(beta.size(), 1u);
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_GT(beta[0].score, alpha[0].score);
}

TEST(VectorStore, DuplicateTokensCountOncePerDocumentMatchOracle) {
  const auto chunks = text_chunks({"word word word", "other text"});
  const ScanOracle oracle(chunks);
  EXPECT_EQ(oracle.document_frequency("word"), 1u);
  const VectorStore store(chunks);
  std::size_t checks = 0;
  expect_matches_oracle(store, oracle, {"word", "word word", "other word"},
                        {1, 2}, checks);
  EXPECT_EQ(checks, 6u);
}

TEST(VectorStore, PostingsMatchScanOracleBitForBit) {
  std::vector<std::string> queries = {"", "zzzzz xxxxx qqqqq",
                                      "grover grover oracle grover",
                                      "import import qiskit qiskit_ibm_runtime"};
  for (const eval::TestCase& c : eval::semantic_suite()) {
    const std::string prompt = prompt_text(c.task);
    queries.push_back(prompt);
    queries.push_back(prompt + " import module library version");
  }
  std::vector<std::vector<Document>> corpora = {
      qiskit_api_corpus(0.0), qiskit_api_corpus(0.3), qiskit_api_corpus(0.6),
      algorithm_guide_corpus()};
  std::size_t checks = 0;
  for (const auto& corpus : corpora) {
    for (const ChunkStrategy strategy :
         {ChunkStrategy::kBasic, ChunkStrategy::kStructureAware}) {
      const auto chunks = chunk_documents(corpus, strategy);
      const ScanOracle oracle(chunks);
      const VectorStore store(chunks);
      expect_matches_oracle(store, oracle, queries, {1, 4, chunks.size() + 1},
                            checks);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(checks, 8 * queries.size() * 3);
}

TEST(VectorStore, DefaultTechniqueContentVersionsArePinned) {
  // The retrieval-cache key folds in content_version(); these are the
  // values the scan-based store produced, so cached entries keyed before
  // the postings index keep their meaning.
  const agents::TechniqueResources resources(
      agents::TechniqueConfig::with_rag(ModelProfile::kStarCoder3B));
  ASSERT_NE(resources.api_store(), nullptr);
  ASSERT_NE(resources.guide_store(), nullptr);
  EXPECT_EQ(resources.api_store()->content_version(), 1630314859272610592ull);
  EXPECT_EQ(resources.guide_store()->content_version(), 6377768565210794744ull);
}

TEST(Corpus, ApiCorpusStaleFractionControl) {
  const auto fresh = qiskit_api_corpus(0.0);
  for (const auto& doc : fresh) {
    EXPECT_EQ(doc.freshness, DocFreshness::kCurrent) << doc.id;
  }
  const auto mixed = qiskit_api_corpus(0.35);
  std::size_t stale = 0;
  for (const auto& doc : mixed) {
    if (doc.freshness == DocFreshness::kStale) ++stale;
  }
  const double fraction =
      static_cast<double>(stale) / static_cast<double>(mixed.size());
  EXPECT_NEAR(fraction, 0.35, 0.06);
  EXPECT_THROW(qiskit_api_corpus(1.5), InvalidArgumentError);
}

TEST(Corpus, HigherStaleFractionMeansMoreStaleDocs) {
  const auto low = qiskit_api_corpus(0.2);
  const auto high = qiskit_api_corpus(0.6);
  const auto count_stale = [](const std::vector<Document>& docs) {
    std::size_t n = 0;
    for (const auto& d : docs) {
      if (d.freshness == DocFreshness::kStale) ++n;
    }
    return n;
  };
  EXPECT_LT(count_stale(low), count_stale(high));
}

TEST(Corpus, GuideCorpusCoversEveryAlgorithm) {
  const auto guides = algorithm_guide_corpus();
  for (AlgorithmId id : all_algorithms()) {
    const bool found =
        std::any_of(guides.begin(), guides.end(),
                    [&](const Document& d) { return d.algorithm == id; });
    EXPECT_TRUE(found) << algorithm_name(id);
  }
}

TEST(Corpus, TokenAccounting) {
  const auto guides = algorithm_guide_corpus();
  EXPECT_GT(corpus_tokens(guides), 200u);
  EXPECT_EQ(corpus_tokens({}), 0u);
}

TEST(Chunking, BasicSplitsByWindow) {
  Document doc;
  doc.id = "d";
  doc.text.clear();
  for (int i = 0; i < 100; ++i) doc.text += "word" + std::to_string(i) + " ";
  const auto chunks = chunk_documents({doc}, ChunkStrategy::kBasic, 16);
  EXPECT_EQ(chunks.size(), 7u);  // ceil(100/16)
  EXPECT_THROW(chunk_documents({doc}, ChunkStrategy::kBasic, 2),
               InvalidArgumentError);
}

TEST(Chunking, StructureAwareKeepsSentences) {
  Document doc;
  doc.id = "d";
  doc.text = "First sentence about grover. Second sentence about qft. "
             "Third sentence about teleportation.";
  const auto chunks =
      chunk_documents({doc}, ChunkStrategy::kStructureAware, 12);
  for (const auto& chunk : chunks) {
    // Structure-aware chunks end at sentence boundaries.
    const auto trimmed = trim(chunk.text);
    EXPECT_EQ(trimmed.back(), '.') << chunk.text;
  }
}

TEST(Chunking, PropagatesMetadata) {
  const auto guides = algorithm_guide_corpus();
  const auto chunks = chunk_documents(guides, ChunkStrategy::kBasic, 32);
  bool found_grover = false;
  for (const auto& chunk : chunks) {
    if (chunk.algorithm == AlgorithmId::kGrover) found_grover = true;
  }
  EXPECT_TRUE(found_grover);
}

TEST(VectorStore, RetrievesRelevantGuide) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("grover search oracle diffusion", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].chunk->algorithm, AlgorithmId::kGrover);
  // Scores are sorted descending.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST(VectorStore, TeleportationQueryFindsTeleportationGuide) {
  VectorStore store(chunk_documents(algorithm_guide_corpus(),
                                    ChunkStrategy::kStructureAware, 48));
  const auto hits = store.retrieve(
      "teleport a state using a bell pair and conditioned corrections", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].chunk->algorithm, AlgorithmId::kTeleportation);
}

TEST(VectorStore, NoMatchesForAlienQuery) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("zzzzz xxxxx qqqqq", 5);
  EXPECT_TRUE(hits.empty());
}

TEST(VectorStore, TopKLimit) {
  VectorStore store(
      chunk_documents(algorithm_guide_corpus(), ChunkStrategy::kBasic, 48));
  const auto hits = store.retrieve("quantum circuit measure qubit", 2);
  EXPECT_LE(hits.size(), 2u);
}

TEST(VectorStore, EmptyChunksRejected) {
  EXPECT_THROW(VectorStore({}), InvalidArgumentError);
}

TEST(VectorStore, EqualScoresTieBreakByChunkIndex) {
  // Five chunks with identical text score identically on any matching
  // query; the result order must be the stable chunk-index order, not an
  // artifact of the sort implementation or the doc-id strings.
  std::vector<Chunk> chunks;
  for (int i = 0; i < 5; ++i) {
    Chunk chunk;
    // Deliberately anti-sorted ids: index order != lexicographic order.
    chunk.doc_id = "doc-" + std::to_string(9 - i);
    chunk.text = "superposition entangle measure";
    chunks.push_back(chunk);
  }
  VectorStore store(std::move(chunks));
  const auto hits = store.retrieve("superposition entangle", 5);
  ASSERT_EQ(hits.size(), 5u);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].score, hits[0].score);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].chunk, &store.chunks()[i]) << i;
  }
}

TEST(VectorStore, StaleDocsCompeteOnGenericQueries) {
  // With a heavily stale corpus, generic import/run queries must surface
  // stale chunks — the mechanism behind the RAG staleness ablation.
  VectorStore store(chunk_documents(qiskit_api_corpus(0.6),
                                    ChunkStrategy::kBasic, 48));
  const auto hits =
      store.retrieve("import module run circuit simulator measure", 6);
  ASSERT_FALSE(hits.empty());
  const bool any_stale =
      std::any_of(hits.begin(), hits.end(), [](const Retrieved& r) {
        return r.chunk->freshness == DocFreshness::kStale;
      });
  EXPECT_TRUE(any_stale);
}

}  // namespace
}  // namespace qcgen::llm
