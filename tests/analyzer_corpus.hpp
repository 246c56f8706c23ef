#pragma once
// The analyzer inputs shared by the golden analyzer digest and the
// allocation budget: perfbench's eval shape (RAG, three passes, one
// worker, eight samples over every third semantic-suite case) and a
// fixed corpus of program texts (the gold programs of both suites plus
// the model-corrupted sources of the fuzz sweep).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "llm/templates.hpp"
#include "qasm/printer.hpp"

#include "fuzz_sources.hpp"

namespace qcgen::testing_support {

/// Runs perfbench's eval shape at `seed` and calls `visit` with every
/// trial, in trial index order; returns the number of trials.
template <typename Visit>
std::size_t run_eval_shape(std::uint64_t seed, Visit&& visit) {
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> suite;
  for (std::size_t i = 0; i < full.size(); i += 3) suite.push_back(full[i]);
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;
  eval::RunnerOptions options;
  options.seed = seed;
  options.threads = 1;
  std::size_t visits = 0;
  eval::run_trial_matrix(technique, suite, 8, options,
                         [&](const eval::Trial& trial) {
                           EXPECT_EQ(trial.failure, nullptr);
                           ++visits;
                           visit(trial);
                         });
  EXPECT_EQ(visits, 8 * suite.size());
  return visits;
}

/// The gold program of every case of both suites, then the corrupted
/// sources of fuzz sweep seeds 1-6.
inline std::vector<std::string> golden_sources() {
  std::vector<std::string> out;
  for (const auto& suite : {eval::semantic_suite(), eval::qhe_suite()}) {
    for (const eval::TestCase& test_case : suite) {
      out.push_back(qasm::print_program(llm::gold_program(test_case.task)));
    }
  }
  for (int seed = 1; seed < 7; ++seed) {
    for (std::string& source : mutated_gold_sources(seed)) {
      out.push_back(std::move(source));
    }
  }
  return out;
}

}  // namespace qcgen::testing_support
