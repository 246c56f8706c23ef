#pragma once
// Reference oracle and correctness judge.
//
// A generated program is *syntactically* valid when it parses and passes
// semantic analysis, and *semantically* valid when it additionally
// simulates to a measurement distribution within TVD threshold of the
// gold solution's (paper: "syntactically and semantically correct").

#include <map>
#include <memory>
#include <string>

#include "agents/semantic_agent.hpp"
#include "common/stats.hpp"
#include "eval/suite.hpp"

namespace qcgen::eval {

/// Caches reference counts per test case id (gold programs compiled and
/// simulated once). The gold program each reference was simulated from
/// is kept too, shared and immutable, so generation can plan from it
/// instead of rebuilding it per trial.
class ReferenceOracle {
 public:
  /// Exact reference distribution for a case (cached on first use).
  const sim::Distribution& reference_for(const TestCase& test_case);

  /// Fills the cache for every case up front. After prewarming a suite,
  /// reference_for is read-only for its cases and safe to call from
  /// concurrent trial workers.
  void prewarm(const std::vector<TestCase>& suite);

  /// Read-only cache lookup by case id (nullptr when the case was never
  /// prewarmed or requested). Unlike reference_for it can never compile
  /// a gold program, so concurrent workers may call it freely as long
  /// as no thread is mutating the cache — the serving layer's contract.
  const sim::Distribution* find(const std::string& case_id) const;

  /// The gold program behind a cached reference (null when the case was
  /// never prewarmed or requested). Read-only like find().
  std::shared_ptr<const qasm::Program> gold(const std::string& case_id) const;

 private:
  struct Entry {
    sim::Distribution reference;
    std::shared_ptr<const qasm::Program> gold;
  };
  std::map<std::string, Entry> cache_;
};

/// Final verdict on one generated source.
struct Verdict {
  bool syntactic_ok = false;
  bool semantic_ok = false;
  double tvd = 1.0;
  std::size_t error_count = 0;
  /// True when every error diagnostic is syntactic-class (import/gate/
  /// parse); used for the syntactic-vs-semantic split analysis.
  bool only_syntactic_errors = true;
};

/// Judges one source against a case's reference distribution.
Verdict judge_source(const std::string& source,
                     const sim::Distribution& reference,
                     const agents::SemanticAnalyzerAgent& analyzer);

}  // namespace qcgen::eval
