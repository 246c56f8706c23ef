#include "llm/vectorstore.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/cache/hash.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace qcgen::llm {

std::vector<Chunk> chunk_documents(const std::vector<Document>& docs,
                                   ChunkStrategy strategy,
                                   std::size_t window) {
  require(window >= 8, "chunk_documents: window too small");
  std::vector<Chunk> chunks;
  for (const Document& doc : docs) {
    const auto emit = [&](std::string text) {
      if (trim(text).empty()) return;
      Chunk c;
      c.doc_id = doc.id;
      c.text = std::move(text);
      c.freshness = doc.freshness;
      c.algorithm = doc.algorithm;
      chunks.push_back(std::move(c));
    };
    if (strategy == ChunkStrategy::kBasic) {
      // Fixed token windows over the raw word stream — chops sentences
      // and code examples mid-unit, exactly like naive RAG splitting.
      const auto words = split_whitespace(doc.text);
      for (std::size_t start = 0; start < words.size(); start += window) {
        const std::size_t end = std::min(words.size(), start + window);
        std::vector<std::string> piece(words.begin() + static_cast<std::ptrdiff_t>(start),
                                       words.begin() + static_cast<std::ptrdiff_t>(end));
        emit(join(piece, " "));
      }
    } else {
      // Structure-aware: accumulate whole sentences up to the window.
      std::vector<std::string> sentences;
      std::string current;
      for (char c : doc.text) {
        current += c;
        if (c == '.' || c == ';') {
          sentences.push_back(current);
          current.clear();
        }
      }
      if (!trim(current).empty()) sentences.push_back(current);
      std::string acc;
      for (const std::string& s : sentences) {
        if (!acc.empty() && count_tokens(acc) + count_tokens(s) > window) {
          emit(acc);
          acc.clear();
        }
        acc += s;
      }
      emit(acc);
    }
  }
  return chunks;
}

namespace {
constexpr double kK1 = 1.5;
constexpr double kB = 0.75;
}  // namespace

VectorStore::VectorStore(std::vector<Chunk> chunks)
    : chunks_(std::move(chunks)) {
  require(!chunks_.empty(), "VectorStore: empty chunk set");
  require(chunks_.size() <= UINT32_MAX, "VectorStore: too many chunks");
  std::vector<double> chunk_len;
  chunk_len.reserve(chunks_.size());
  double total_len = 0.0;
  cache::KeyHasher version;
  version.mix(static_cast<std::uint64_t>(chunks_.size()));
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    // Intern the chunk's tokens, then run-length count the sorted ids:
    // one posting per distinct term, appended in chunk order.
    ids.clear();
    for (std::string& token : tokenize(c.text)) {
      const auto [it, inserted] = term_ids_.try_emplace(
          std::move(token), static_cast<std::uint32_t>(terms_.size()));
      if (inserted) terms_.emplace_back();
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    for (std::size_t run = 0; run < ids.size();) {
      std::size_t next = run + 1;
      while (next < ids.size() && ids[next] == ids[run]) ++next;
      terms_[ids[run]].postings.push_back(
          Posting{static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(next - run)});
      run = next;
    }
    chunk_len.push_back(static_cast<double>(ids.size()));
    total_len += chunk_len.back();
    version.mix(c.doc_id).mix(c.text);
    version.mix(static_cast<std::uint64_t>(c.freshness));
    version.mix(c.algorithm.has_value());
    if (c.algorithm.has_value()) {
      version.mix(static_cast<std::uint64_t>(*c.algorithm));
    }
  }
  const double avg_len = total_len / static_cast<double>(chunks_.size());
  norm_.reserve(chunks_.size());
  for (const double len : chunk_len) {
    norm_.push_back(kK1 * (1.0 - kB + kB * len / avg_len));
  }
  const double n = static_cast<double>(chunks_.size());
  for (Term& term : terms_) {
    const double df = static_cast<double>(term.postings.size());
    term.idf = std::log((n - df + 0.5) / (df + 0.5) + 1.0);  // BM25+ smoothing
  }
  content_version_ = version.digest();
}

std::vector<ScoredIndex> VectorStore::retrieve_uncached(
    const std::string& query, std::size_t k) const {
  // Query order, duplicates included: each chunk's sum adds the same
  // terms in the same order as a full scan (see the header comment).
  std::vector<double> acc(chunks_.size(), 0.0);
  for (const std::string& token : tokenize(query)) {
    const auto it = term_ids_.find(token);
    if (it == term_ids_.end()) continue;
    const Term& term = terms_[it->second];
    for (const Posting& p : term.postings) {
      const double tf = static_cast<double>(p.tf);
      acc[p.chunk] += term.idf * (tf * (kK1 + 1.0)) / (tf + norm_[p.chunk]);
    }
  }
  std::vector<ScoredIndex> hits;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    if (acc[i] > 0.0) hits.push_back(ScoredIndex{i, acc[i]});
  }
  // Equal scores fall back to chunk index: a total order, so the top k
  // never depends on the sort implementation — these results are cache
  // values and must be the same on every run.
  const auto top = hits.begin() +
                   static_cast<std::ptrdiff_t>(std::min(k, hits.size()));
  std::partial_sort(hits.begin(), top, hits.end(),
                    [](const ScoredIndex& a, const ScoredIndex& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.index < b.index;
                    });
  hits.erase(top, hits.end());
  return hits;
}

std::vector<Retrieved> VectorStore::retrieve(const std::string& query,
                                             std::size_t k) const {
  failpoint::trip("retrieval.query");
  trace::TraceSpan span("bm25.query");
  std::vector<ScoredIndex> scored;
  if (cache_ != nullptr) {
    const std::uint64_t key = cache::KeyHasher()
                                  .mix(content_version_)
                                  .mix(query)
                                  .mix(static_cast<std::uint64_t>(k))
                                  .digest();
    scored = *cache_->get_or_compute(
        key, [&] { return retrieve_uncached(query, k); });
  } else {
    scored = retrieve_uncached(query, k);
  }
  std::vector<Retrieved> hits;
  hits.reserve(scored.size());
  for (const ScoredIndex& s : scored) {
    hits.push_back(Retrieved{&chunks_[s.index], s.score});
  }
  trace::Metrics::counter("bm25.queries");
  trace::Metrics::counter("bm25.hits",
                          static_cast<std::int64_t>(hits.size()));
  if (!hits.empty()) trace::Metrics::observe("bm25.top_score", hits[0].score);
  return hits;
}

}  // namespace qcgen::llm
