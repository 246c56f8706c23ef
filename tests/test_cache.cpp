// Tests for the content-addressed cache subsystem: key hashing, the
// sharded single-flight Cache with LRU bounding, and the three
// memoization layers wired onto it (generation, retrieval, analysis) —
// including the hit-equals-miss byte-identity contract and version-bump
// invalidation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "agents/codegen_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/technique_resources.hpp"
#include "common/cache/cache.hpp"
#include "common/cache/hash.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "eval/suite.hpp"
#include "llm/corpus.hpp"
#include "llm/vectorstore.hpp"

using namespace qcgen;

namespace {

/// Every Stats must obey the conservation laws regardless of the
/// access pattern or thread schedule that produced it.
void expect_conserved(const cache::Stats& stats) {
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_LE(stats.inserts, stats.misses);
  EXPECT_LE(stats.evictions, stats.inserts);
  EXPECT_GE(stats.hit_rate(), 0.0);
  EXPECT_LE(stats.hit_rate(), 1.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// KeyHasher

TEST(KeyHasher, DeterministicAndOrderSensitive) {
  const auto digest = [](auto&&... fields) {
    cache::KeyHasher hasher;
    (hasher.mix(fields), ...);
    return hasher.digest();
  };
  EXPECT_EQ(digest(std::uint64_t{1}, std::uint64_t{2}),
            digest(std::uint64_t{1}, std::uint64_t{2}));
  EXPECT_NE(digest(std::uint64_t{1}, std::uint64_t{2}),
            digest(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_NE(digest(std::uint64_t{1}), digest(std::uint64_t{2}));
}

TEST(KeyHasher, FieldBoundariesArePartOfTheHash) {
  using namespace std::string_view_literals;
  cache::KeyHasher a, b;
  a.mix("ab"sv).mix("c"sv);
  b.mix("a"sv).mix("bc"sv);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(KeyHasher, NegativeZeroNormalises) {
  cache::KeyHasher a, b, c;
  a.mix(0.0);
  b.mix(-0.0);
  c.mix(1.0);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

// ---------------------------------------------------------------------------
// Cache

TEST(Cache, ComputesOncePerKeyAndCountsHits) {
  cache::Cache<int> cache({});
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return 41 + computes;
  };
  EXPECT_EQ(*cache.get_or_compute(5, compute), 42);
  EXPECT_EQ(*cache.get_or_compute(5, compute), 42);  // hit, not 43
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*cache.get_or_compute(6, compute), 43);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  expect_conserved(stats);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.peek(5), nullptr);
  EXPECT_EQ(*cache.peek(5), 42);
  EXPECT_EQ(cache.peek(99), nullptr);
  // peek is an observation aid: it never touches the counters.
  EXPECT_EQ(cache.stats().lookups, 3u);
}

TEST(Cache, FailedComputeIsNeverPublished) {
  cache::Cache<int> cache({});
  EXPECT_THROW(cache.get_or_compute(
                   1, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // The retry recomputes and publishes normally.
  EXPECT_EQ(*cache.get_or_compute(1, [] { return 7; }), 7);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);   // the failed attempt still missed
  EXPECT_EQ(stats.inserts, 1u);  // but only the successful one inserted
  expect_conserved(stats);
}

TEST(Cache, BoundedSingleShardEvictsByPolicy) {
  cache::Cache<int> cache({.capacity = 2, .shards = 1});
  const auto value = [](int v) { return [v] { return v; }; };
  (void)cache.get_or_compute(1, value(1));
  (void)cache.get_or_compute(2, value(2));
  (void)cache.get_or_compute(1, value(1));  // refresh 1; 2 is now LRU
  (void)cache.get_or_compute(3, value(3));  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  expect_conserved(stats);
  // The evicted key recomputes on the next lookup.
  EXPECT_EQ(*cache.get_or_compute(2, value(20)), 20);
}

TEST(Cache, RejectsInvalidOptions) {
  EXPECT_THROW(cache::Cache<int>({.shards = 0}), InvalidArgumentError);
}

TEST(Cache, SingleFlightCoalescesConcurrentMisses) {
  cache::Cache<int> cache({.shards = 1});
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      const auto value = cache.get_or_compute(77, [&] {
        ++computes;
        // Widen the race window so waiters really do pile up in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 123;
      });
      if (*value != 123) ++failures;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(computes.load(), 1);  // single flight: one compute total
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);  // totals are schedule-independent
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  expect_conserved(stats);
}

TEST(Cache, MultiThreadHammerOnOneShardKeepsInvariants) {
  // TSan target: many threads, one shard, bounded capacity — maximum
  // lock/cv contention. Totals are schedule-dependent here (eviction
  // interleaves with lookups), but conservation must always hold.
  cache::Cache<int> cache({.capacity = 4, .shards = 1});
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::uint64_t state = 1000 + static_cast<std::uint64_t>(t);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = splitmix64(state) % 16;
        const auto value =
            cache.get_or_compute(key, [key] { return static_cast<int>(key); });
        if (*value != static_cast<int>(key)) std::abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads * kOps));
  expect_conserved(stats);
  EXPECT_LE(cache.size(), 4u);
}

// ---------------------------------------------------------------------------
// Generation layer

TEST(GenerationLayer, CachedHitsAreByteIdenticalToUncached) {
  const auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  const auto resources =
      std::make_shared<const agents::TechniqueResources>(technique);
  const auto cache = std::make_shared<agents::GenerationCache>(
      cache::CacheOptions{});

  agents::CodeGenAgent cached(technique, resources, /*seed=*/1);
  cached.set_content_addressed(cache);
  agents::CodeGenAgent bypass(technique, resources, /*seed=*/2);
  bypass.set_content_addressed(nullptr);  // content-addressed, unmemoized

  const auto task = eval::semantic_suite()[0].task;
  const auto miss = cached.generate(task, 0, true);
  const auto hit = cached.generate(task, 0, true);
  const auto pure = bypass.generate(task, 0, true);
  // Hit == miss == the uncached content-addressed compute, byte for
  // byte — the certification contract. The agents' own seeds (1 vs 2)
  // are irrelevant: content-addressed draws are seeded from the key.
  EXPECT_EQ(miss.source, hit.source);
  EXPECT_EQ(miss.source, pure.source);
  EXPECT_EQ(miss.retrieval.api_hits, pure.retrieval.api_hits);
  EXPECT_EQ(miss.retrieval.guide_matched_algorithm,
            pure.retrieval.guide_matched_algorithm);
  EXPECT_EQ(miss.faults.size(), pure.faults.size());
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(GenerationLayer, KeySeparatesTechniqueAndKnowledgeVersions) {
  const auto base =
      agents::TechniqueConfig::fine_tuned_only(llm::ModelProfile::kStarCoder3B);
  auto wider = base;
  wider.rag_top_k = base.rag_top_k + 1;
  agents::CodeGenAgent a(base, /*seed=*/1);
  agents::CodeGenAgent b(wider, /*seed=*/1);
  const auto task = eval::semantic_suite()[0].task;
  // Same task, different technique digest -> disjoint key spaces.
  EXPECT_NE(a.generation_key(task, 0, false), b.generation_key(task, 0, false));

  // A knowledge-state change (base vs fine-tuned profile) bumps the
  // knowledge version, diverging every key: invalidation without any
  // explicit flush.
  const auto untuned =
      agents::TechniqueConfig::base(llm::ModelProfile::kStarCoder3B);
  agents::CodeGenAgent c(untuned, /*seed=*/1);
  EXPECT_NE(a.generation_key(task, 0, false), c.generation_key(task, 0, false));

  // Stable within one configuration; the prompt index only matters
  // through the hand-written-scaffold decision.
  EXPECT_EQ(a.generation_key(task, 0, false), a.generation_key(task, 0, false));
  const std::size_t past_window = base.cot_hand_written + 1;
  EXPECT_EQ(a.generation_key(task, past_window, false),
            a.generation_key(task, past_window + 1, false));
}

// ---------------------------------------------------------------------------
// Retrieval layer

TEST(RetrievalLayer, CachedHitsMatchUncachedRetrieval) {
  const auto chunks = llm::chunk_documents(llm::algorithm_guide_corpus(),
                                           llm::ChunkStrategy::kBasic, 48);
  llm::VectorStore uncached(chunks);
  llm::VectorStore cached(chunks);
  const auto cache = std::make_shared<llm::RetrievalCache>(
      cache::CacheOptions{});
  cached.attach_cache(cache);
  EXPECT_EQ(uncached.content_version(), cached.content_version());

  const std::string query = "grover search oracle diffusion";
  const auto expect_same = [&] {
    const auto a = uncached.retrieve(query, 3);
    const auto b = cached.retrieve(query, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].chunk->doc_id, b[i].chunk->doc_id);
      EXPECT_EQ(a[i].chunk->text, b[i].chunk->text);
      EXPECT_EQ(a[i].score, b[i].score);  // bitwise: same fold order
    }
  };
  expect_same();  // miss path
  expect_same();  // hit path
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(RetrievalLayer, CorpusVersionKeepsSharedCacheCollisionFree) {
  const auto cache = std::make_shared<llm::RetrievalCache>(
      cache::CacheOptions{});
  llm::VectorStore guides(llm::chunk_documents(
      llm::algorithm_guide_corpus(), llm::ChunkStrategy::kBasic, 48));
  llm::VectorStore api(llm::chunk_documents(llm::qiskit_api_corpus(0.0),
                                            llm::ChunkStrategy::kBasic, 48));
  guides.attach_cache(cache);
  api.attach_cache(cache);
  ASSERT_NE(guides.content_version(), api.content_version());

  const std::string query = "measure qubit circuit";
  const auto from_guides = guides.retrieve(query, 4);
  const auto from_api = api.retrieve(query, 4);
  // Same query, same k, same shared cache — but the corpus version in
  // the key keeps the entries separate: each store's answer points into
  // its own chunk vector.
  for (const auto& hit : from_guides) {
    EXPECT_GE(hit.chunk, guides.chunks().data());
    EXPECT_LT(hit.chunk, guides.chunks().data() + guides.chunks().size());
  }
  for (const auto& hit : from_api) {
    EXPECT_GE(hit.chunk, api.chunks().data());
    EXPECT_LT(hit.chunk, api.chunks().data() + api.chunks().size());
  }
  EXPECT_EQ(cache->stats().misses, 2u);  // two distinct keys
}

// ---------------------------------------------------------------------------
// Analysis layer

TEST(AnalysisLayer, CachedReportsAreByteIdenticalToUncached) {
  const std::string good =
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }";
  const std::string bad = "circuit main(q: 1) { frobnicate q[0]; }";

  const agents::SemanticAnalyzerAgent uncached;
  agents::SemanticAnalyzerAgent cached;
  const auto cache = std::make_shared<agents::AnalysisCache>(
      cache::CacheOptions{});
  cached.set_analysis_cache(cache);

  for (const std::string& source : {good, bad}) {
    const auto reference = uncached.analyze(source);
    const auto miss = cached.analyze(source);
    const auto hit = cached.analyze(source);
    for (const auto* report : {&miss, &hit}) {
      EXPECT_EQ(report->syntactic_ok, reference.syntactic_ok);
      EXPECT_EQ(report->error_trace, reference.error_trace);
      EXPECT_EQ(report->diagnostics.size(), reference.diagnostics.size());
      EXPECT_EQ(report->circuit.has_value(), reference.circuit.has_value());
    }
  }
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(AnalysisLayer, BehaviorCheckCachesTheJudgedDistribution) {
  const std::string source =
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }";
  agents::SemanticAnalyzerAgent agent;
  const auto cache = std::make_shared<agents::AnalysisCache>(
      cache::CacheOptions{});
  agent.set_analysis_cache(cache);
  const auto report = agent.analyze(source);
  ASSERT_TRUE(report.circuit.has_value());

  const agents::SemanticAnalyzerAgent uncached;
  const auto reference = sim::exact_distribution(*report.circuit);
  const auto pure = uncached.check_behavior(*report.circuit, reference);
  const auto miss = agent.check_behavior(*report.circuit, reference);
  const auto hit = agent.check_behavior(*report.circuit, reference);
  EXPECT_EQ(miss.matches, pure.matches);
  EXPECT_EQ(miss.tvd, pure.tvd);  // bitwise: same simulate, same judge
  EXPECT_EQ(hit.matches, miss.matches);
  EXPECT_EQ(hit.tvd, miss.tvd);
  // analyze() took one miss; the two check_behavior calls add one miss
  // (the simulate entry, salted into its own key namespace) + one hit.
  const auto stats = cache->stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(AnalysisLayer, HitsReplayTheTraceOfAnUncachedCall) {
  const std::string good =
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }";
  const std::string bad = "circuit main(q: 1) { frobnicate q[0]; }";
  const auto summary_of = [](const auto& call) {
    trace::TraceSink sink;
    const trace::SinkScope scope(&sink);
    call();
    return sink.summary();
  };
  const agents::SemanticAnalyzerAgent uncached;
  for (const std::string& source : {good, bad}) {
    const trace::Summary want =
        summary_of([&] { (void)uncached.analyze(source); });
    agents::SemanticAnalyzerAgent cached;
    cached.set_analysis_cache(
        std::make_shared<agents::AnalysisCache>(cache::CacheOptions{}));
    EXPECT_EQ(summary_of([&] { (void)cached.analyze(source); }), want);
    // A hit adds the stored summary and no wall time.
    trace::TraceSink hit_sink;
    {
      const trace::SinkScope scope(&hit_sink);
      (void)cached.analyze(source);
    }
    EXPECT_EQ(hit_sink.summary(), want);
    EXPECT_TRUE(hit_sink.stage_seconds().empty());

    // An entry filled with no sink installed has no summary to replay, so
    // a traced hit on it records by recomputing.
    agents::SemanticAnalyzerAgent filled_untraced;
    filled_untraced.set_analysis_cache(
        std::make_shared<agents::AnalysisCache>(cache::CacheOptions{}));
    (void)filled_untraced.analyze(source);
    EXPECT_EQ(summary_of([&] { (void)filled_untraced.analyze(source); }),
              want);
  }
#if QCGEN_TRACE_ENABLED
  const trace::Summary parsed =
      summary_of([&] { (void)uncached.analyze(good); });
  EXPECT_EQ(parsed.span_counts.at("analyze.lower"), 1u);
#endif
}

TEST(AnalysisLayer, LintConfigurationKeysEntriesApart) {
  const std::string source =
      "import qiskit; circuit main(q: 2, c: 2) { h q[0]; cx q[0], q[1]; "
      "measure_all; }";
  agents::SemanticAnalyzerAgent::Options full_options;
  agents::SemanticAnalyzerAgent::Options degraded_options;
  degraded_options.analysis.abstract_lints = false;
  const agents::SemanticAnalyzerAgent full(full_options);
  const agents::SemanticAnalyzerAgent degraded(degraded_options);
  // The degraded-analyzer ladder rung shares the serving cache; distinct
  // options digests keep its entries from aliasing the full analyzer's.
  EXPECT_NE(full.analysis_key(source), degraded.analysis_key(source));
  EXPECT_EQ(full.analysis_key(source), full.analysis_key(source));
  EXPECT_NE(full.analysis_key(source), full.analysis_key(source + " "));
}

TEST(AnalysisLayer, CircuitDigestSeparatesCircuits) {
  sim::Circuit bell(2, 2);
  bell.h(0);
  bell.cx(0, 1);
  sim::Circuit ghz(3, 3);
  ghz.h(0);
  ghz.cx(0, 1);
  ghz.cx(1, 2);
  EXPECT_EQ(agents::circuit_digest(bell), agents::circuit_digest(bell));
  EXPECT_NE(agents::circuit_digest(bell), agents::circuit_digest(ghz));
  sim::Circuit bell_measured = bell;
  bell_measured.measure(0, 0);
  EXPECT_NE(agents::circuit_digest(bell), agents::circuit_digest(bell_measured));
}
