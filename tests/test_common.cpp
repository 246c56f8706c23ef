// Unit tests for qcgen_common: RNG, statistics, JSON, strings, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace qcgen {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRangeAndUnbiased) {
  Rng rng(3);
  std::array<int, 5> histogram{};
  for (int i = 0; i < 50000; ++i) {
    const auto v = rng.uniform_int(static_cast<std::uint64_t>(5));
    ASSERT_LT(v, 5u);
    ++histogram[v];
  }
  for (int count : histogram) EXPECT_NEAR(count, 10000, 600);
}

TEST(Rng, UniformIntZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(static_cast<std::uint64_t>(0)),
               std::invalid_argument);
}

TEST(Rng, SignedRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(static_cast<std::int64_t>(-2),
                                   static_cast<std::int64_t>(2));
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, SignedFullRangeDoesNotThrow) {
  // Regression: [INT64_MIN, INT64_MAX] has span 2^64, whose uint64
  // representation wraps to 0 — the bounded path used to reject it as an
  // empty range. The full range is exactly the raw generator output.
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 64; ++i) {
    seen.insert(rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()));
  }
  EXPECT_GT(seen.size(), 60u);  // 64 draws over 2^64 values: no repeats
  Rng a(99), b(99);
  EXPECT_EQ(a.uniform_int(std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max()),
            b.uniform_int(std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max()));
}

TEST(Rng, SignedDegenerateRangesAtExtremes) {
  Rng rng(21);
  const auto lo = std::numeric_limits<std::int64_t>::min();
  const auto hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(rng.uniform_int(lo, lo), lo);
  EXPECT_EQ(rng.uniform_int(hi, hi), hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> histogram{};
  for (int i = 0; i < 40000; ++i) ++histogram[rng.discrete(weights)];
  EXPECT_EQ(histogram[1], 0);
  EXPECT_NEAR(histogram[0], 10000, 500);
  EXPECT_NEAR(histogram[2], 30000, 500);
}

TEST(Rng, DiscreteRejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(rng.discrete(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(rng.discrete(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(rng.discrete(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(42);
  Rng child = parent.split();
  Rng parent2(42);
  Rng child2 = parent2.split();
  // Same construction -> same child stream.
  EXPECT_EQ(child.next(), child2.next());
}

TEST(Rng, ChoiceThrowsOnEmpty) {
  Rng rng(1);
  const std::vector<int> empty;
  EXPECT_THROW(rng.choice(empty), std::invalid_argument);
}

TEST(Fnv1a, StableKnownValue) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Stats, WilsonIntervalContainsPointEstimate) {
  const Interval iv = wilson_interval(30, 100);
  EXPECT_LT(iv.lo, 0.3);
  EXPECT_GT(iv.hi, 0.3);
  EXPECT_GE(iv.lo, 0.0);
  EXPECT_LE(iv.hi, 1.0);
}

TEST(Stats, WilsonIntervalZeroTrials) {
  const Interval iv = wilson_interval(0, 0);
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_EQ(iv.hi, 1.0);
}

TEST(Stats, WilsonShrinksWithSamples) {
  const Interval small = wilson_interval(5, 10);
  const Interval large = wilson_interval(500, 1000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(Stats, TvdIdenticalIsZero) {
  Counts a{{"00", 512}, {"11", 512}};
  EXPECT_DOUBLE_EQ(total_variation_distance(a, a), 0.0);
}

TEST(Stats, TvdDisjointIsOne) {
  Counts a{{"00", 100}};
  Counts b{{"11", 100}};
  EXPECT_DOUBLE_EQ(total_variation_distance(a, b), 1.0);
}

TEST(Stats, TvdScaleInvariant) {
  Counts a{{"0", 10}, {"1", 30}};
  Counts b{{"0", 100}, {"1", 300}};
  EXPECT_NEAR(total_variation_distance(a, b), 0.0, 1e-12);
}

TEST(Stats, TvdProbabilityMaps) {
  std::map<std::string, double> a{{"0", 0.5}, {"1", 0.5}};
  std::map<std::string, double> b{{"0", 0.75}, {"1", 0.25}};
  EXPECT_NEAR(total_variation_distance(a, b), 0.25, 1e-12);
}

// The set-based union walk total_variation_distance used before it became
// one merge pass; the merge must add the same terms in the same order.
double set_union_tvd(const std::map<std::string, double>& a,
                     const std::map<std::string, double>& b) {
  std::set<std::string> keys;
  for (const auto& [k, _] : a) keys.insert(k);
  for (const auto& [k, _] : b) keys.insert(k);
  double d = 0.0;
  for (const auto& k : keys) {
    const auto ia = a.find(k);
    const auto ib = b.find(k);
    const double x = ia == a.end() ? 0.0 : ia->second;
    const double y = ib == b.end() ? 0.0 : ib->second;
    d += std::abs(x - y);
  }
  return 0.5 * d;
}

TEST(Stats, TvdMergeMatchesSetUnionWalkBitForBit) {
  using Dist = std::map<std::string, double>;
  const auto random_dist = [](Rng& rng, std::size_t bits) {
    Dist out;
    double total = 0.0;
    for (std::uint64_t outcome = 0; outcome < (1ULL << bits); ++outcome) {
      if (rng.uniform() < 0.4) continue;  // sparse, like sampled outcomes
      std::string key(bits, '0');
      for (std::size_t b = 0; b < bits; ++b) {
        if ((outcome >> b) & 1) key[bits - 1 - b] = '1';
      }
      out[key] = rng.uniform();
      total += out[key];
    }
    for (auto& [_, p] : out) p /= total;
    return out;
  };
  Rng rng(20251017);
  for (int round = 0; round < 300; ++round) {
    const std::size_t bits = 1 + static_cast<std::size_t>(round % 6);
    const Dist a = random_dist(rng, bits);
    const Dist b = random_dist(rng, bits);
    EXPECT_EQ(total_variation_distance(a, b), set_union_tvd(a, b))
        << "round " << round;
    EXPECT_EQ(total_variation_distance(b, a), set_union_tvd(b, a))
        << "round " << round;
  }
  const Dist empty;
  const Dist left{{"00", 0.25}, {"01", 0.75}};
  const Dist right{{"10", 0.5}, {"11", 0.5}};
  const Dist overlap{{"00", 0.125}, {"011", 0.375}, {"11", 0.5}};
  const Dist cases[] = {empty, left, right, overlap};
  for (const Dist& a : cases) {
    for (const Dist& b : cases) {
      EXPECT_EQ(total_variation_distance(a, b), set_union_tvd(a, b));
    }
  }
  EXPECT_EQ(total_variation_distance(empty, empty), 0.0);
  EXPECT_EQ(total_variation_distance(left, empty), 0.5);
  EXPECT_EQ(total_variation_distance(left, right), 1.0);
}

TEST(Stats, SortedByCountOrdering) {
  Counts counts{{"a", 5}, {"b", 10}, {"c", 5}};
  const auto sorted = sorted_by_count(counts);
  EXPECT_EQ(sorted[0].first, "b");
  EXPECT_EQ(sorted[1].first, "a");  // tie broken lexicographically
  EXPECT_EQ(sorted[2].first, "c");
}

TEST(Stats, OutcomeProbability) {
  Counts counts{{"00", 25}, {"11", 75}};
  EXPECT_NEAR(outcome_probability(counts, "11"), 0.75, 1e-12);
  EXPECT_EQ(outcome_probability(counts, "01"), 0.0);
}

TEST(Json, ScalarsAndEscapes) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json("a\"b\n").dump(), "\"a\\\"b\\n\"");
}

TEST(Json, NestedStructure) {
  Json root;
  root["name"] = "qcgen";
  root["values"].push_back(1);
  root["values"].push_back(2.5);
  const std::string s = root.dump();
  EXPECT_NE(s.find("\"name\":\"qcgen\""), std::string::npos);
  EXPECT_NE(s.find("[1,2.5]"), std::string::npos);
}

TEST(Json, PrettyPrintIndents) {
  Json root;
  root["k"] = 1;
  const std::string s = root.dump(2);
  EXPECT_NE(s.find("\n  \"k\": 1\n"), std::string::npos);
}

TEST(Json, Uint64RoundTripsExactly) {
  // Regression: seeds used to be coerced to double, silently rounding
  // anything >= 2^53. 0xDEADBEEFDEADBEEF needs all 64 bits.
  const std::uint64_t seed = 0xDEADBEEFDEADBEEFULL;
  EXPECT_EQ(Json(seed).dump(), "16045690984833335023");
  Json report;
  report["seed"] = seed;
  EXPECT_EQ(report.dump(), "{\"seed\":16045690984833335023}");
}

TEST(Json, Int64AboveDoubleMantissaIsExact) {
  // 2^53 + 1 is the first integer a double cannot represent.
  EXPECT_EQ(Json(static_cast<std::int64_t>(9007199254740993)).dump(),
            "9007199254740993");
  EXPECT_EQ(Json(static_cast<std::int64_t>(-9007199254740993)).dump(),
            "-9007199254740993");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
}

TEST(Json, NonFiniteSerializesAsNull) {
  // NaN/Infinity are not valid JSON; %.10g used to print them verbatim
  // and produce unparseable artifacts.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
  Json arr;
  arr.push_back(1.5);
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(arr.dump(), "[1.5,null]");
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  const auto parts = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Table, RendersAlignedRows) {
  Table t({"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a      | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgumentError);
}

TEST(Table, MarkdownOutput) {
  Table t({"h1", "h2"});
  t.add_row({"x", "y"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
}

TEST(BarChart, ScalesToWidth) {
  const std::string chart =
      bar_chart({{"full", 10.0}, {"half", 5.0}}, 10.0, 10);
  EXPECT_NE(chart.find("##########"), std::string::npos);
  EXPECT_NE(chart.find("#####     "), std::string::npos);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    require(false, "broken invariant");
    FAIL() << "require did not throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

}  // namespace
}  // namespace qcgen
