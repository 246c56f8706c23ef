// Tests for the shared bench harness flag parsing (bench/harness.hpp).
//
// The harness owns the CLI surface of every bench binary, so malformed
// invocations must fail fast with exit code 2 instead of silently
// running a wrong experiment (a negative --samples used to wrap around
// through std::stoull to 2^64-3). Exit paths are covered with gtest
// death tests; the parsed-state checks construct the harness directly.

#include "harness.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace qcgen::bench {
namespace {

/// Builds a mutable argv from string literals (Harness wants char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
    pointers_.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(storage_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

Harness make(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_test");
  Argv argv(std::move(args));
  return Harness("test", argv.argc(), argv.argv(), {.samples = 5});
}

TEST(BenchHarness, DefaultsApplyWithoutFlags) {
  Harness harness = make({});
  EXPECT_EQ(harness.samples(), 5u);
  EXPECT_FALSE(harness.quick());
  EXPECT_EQ(harness.threads(), 0u);
  EXPECT_TRUE(harness.scenario().empty());
}

TEST(BenchHarness, ParsesTheFullFlagSet) {
  Harness harness = make({"--samples", "7", "--seed", "123", "--threads",
                          "4", "--scenario", "llm.generate=error(0.5)"});
  EXPECT_EQ(harness.samples(), 7u);
  EXPECT_EQ(harness.seed(), 123u);
  EXPECT_EQ(harness.threads(), 4u);
  EXPECT_EQ(harness.scenario(), "llm.generate=error(0.5)");
}

TEST(BenchHarness, QuickKeepsAnExplicitSamplesOverride) {
  Harness harness = make({"--quick", "--samples", "9"});
  EXPECT_TRUE(harness.quick());
  EXPECT_EQ(harness.samples(), 9u);
}

TEST(BenchHarness, ThreadsAtLimitAccepted) {
  EXPECT_EQ(make({"--threads", "1024"}).threads(), 1024u);
}

using BenchHarnessDeath = ::testing::Test;

TEST(BenchHarnessDeath, UnknownFlagExits2) {
  EXPECT_EXIT((void)make({"--wat"}), ::testing::ExitedWithCode(2),
              "unknown argument '--wat'");
}

TEST(BenchHarnessDeath, NegativeSamplesExits2) {
  // "-3" is flag-like, so it reads as a missing operand — either way it
  // must never wrap around to a huge sample count.
  EXPECT_EXIT((void)make({"--samples", "-3"}), ::testing::ExitedWithCode(2),
              "missing value for --samples");
}

TEST(BenchHarnessDeath, NonNumericSamplesExits2) {
  EXPECT_EXIT((void)make({"--samples", "abc"}), ::testing::ExitedWithCode(2),
              "bad value for --samples");
}

TEST(BenchHarnessDeath, TrailingGarbageInNumberExits2) {
  EXPECT_EXIT((void)make({"--seed", "12x"}), ::testing::ExitedWithCode(2),
              "bad value for --seed");
}

TEST(BenchHarnessDeath, OverflowingNumberExits2) {
  EXPECT_EXIT((void)make({"--seed", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "bad value for --seed");
}

TEST(BenchHarnessDeath, MissingValueAtEndExits2) {
  EXPECT_EXIT((void)make({"--threads"}), ::testing::ExitedWithCode(2),
              "missing value for --threads");
}

TEST(BenchHarnessDeath, ThreadsAboveLimitExits2) {
  // Rejected while parsing, so no pool (and no thread) is ever started.
  EXPECT_EXIT((void)make({"--threads", "100000"}),
              ::testing::ExitedWithCode(2), "--threads must be <= 1024");
}

TEST(BenchHarnessDeath, FlagEatingFlagExits2) {
  // `--samples --json` must not consume "--json" as the sample count.
  EXPECT_EXIT((void)make({"--samples", "--json"}),
              ::testing::ExitedWithCode(2), "missing value for --samples");
}

TEST(BenchHarnessDeath, ZeroSamplesExits2) {
  EXPECT_EXIT((void)make({"--samples", "0"}), ::testing::ExitedWithCode(2),
              "--samples must be >= 1");
}

TEST(BenchHarnessDeath, MalformedScenarioExits2) {
  EXPECT_EXIT((void)make({"--scenario", "llm.generate=explode"}),
              ::testing::ExitedWithCode(2), "bad --scenario");
}

TEST(BenchHarnessDeath, ScenarioProbabilityOutOfRangeExits2) {
  EXPECT_EXIT((void)make({"--scenario", "llm.generate=error(1.5)"}),
              ::testing::ExitedWithCode(2), "bad --scenario");
}

}  // namespace
}  // namespace qcgen::bench
