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
#include "llm/templates.hpp"

namespace qcgen::eval {

/// A case's gold program and the exact distribution simulated from it.
struct GoldReference {
  std::shared_ptr<const llm::GoldProgram> gold;
  sim::Distribution reference;
};

/// Reference distributions per test case id. Each case's gold program and
/// reference come from a process-wide table keyed by the exact digest of
/// its task (llm::task_digest): compiled and simulated once per process,
/// then shared, immutable, by every oracle. An oracle keeps the entries
/// it has looked up, so generation can plan from the gold a reference
/// was simulated from instead of rebuilding it per trial.
class ReferenceOracle {
 public:
  /// Exact reference distribution for a case. The first lookup of a case
  /// in this oracle trips the `oracle.reference` fail point, also when
  /// the process-wide table already holds it.
  const sim::Distribution& reference_for(const TestCase& test_case);

  /// Fills the cache for every case up front. After prewarming a suite,
  /// reference_for is read-only for its cases and safe to call from
  /// concurrent trial workers.
  void prewarm(const std::vector<TestCase>& suite);

  /// Read-only cache lookup by case id (nullptr when the case was never
  /// prewarmed or requested). Unlike reference_for it never looks a case
  /// up, so concurrent workers may call it freely as long as no thread
  /// is mutating the cache — the serving layer's contract.
  const sim::Distribution* find(const std::string& case_id) const;

  /// The gold program behind a cached reference (null when the case was
  /// never prewarmed or requested). Read-only like find().
  std::shared_ptr<const llm::GoldProgram> gold(
      const std::string& case_id) const;

 private:
  std::map<std::string, std::shared_ptr<const GoldReference>> cache_;
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
