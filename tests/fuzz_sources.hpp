#pragma once
// Model-corrupted program text shared by the front-end robustness
// sweeps: gold programs with random single-character edits, drawn from
// one seeded stream per sweep seed.

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "llm/tasks.hpp"
#include "llm/templates.hpp"
#include "qasm/printer.hpp"

namespace qcgen::testing_support {

/// Applies `count` random single-character edits (delete/insert/replace).
inline std::string mutate(std::string text, int count, Rng& rng) {
  const std::string alphabet = "abcxyz0189[](){};,->==.#/ \n\"'@";
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t pos = rng.uniform_int(
        static_cast<std::uint64_t>(text.size()));
    switch (rng.uniform_int(static_cast<std::uint64_t>(3))) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1,
                    alphabet[rng.uniform_int(
                        static_cast<std::uint64_t>(alphabet.size()))]);
        break;
      default:
        text[pos] = alphabet[rng.uniform_int(
            static_cast<std::uint64_t>(alphabet.size()))];
    }
  }
  return text;
}

/// The `trials` mutated gold programs of one sweep seed: each picks a
/// random algorithm, prints its gold program and applies 1-20 edits.
inline std::vector<std::string> mutated_gold_sources(int seed,
                                                     int trials = 60) {
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const auto algorithms = llm::all_algorithms();
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(trials));
  for (int trial = 0; trial < trials; ++trial) {
    llm::TaskSpec task;
    task.algorithm = algorithms[rng.uniform_int(
        static_cast<std::uint64_t>(algorithms.size()))];
    const std::string source = qasm::print_program(llm::gold_program(task));
    const int edits = 1 + static_cast<int>(rng.uniform_int(
                              static_cast<std::uint64_t>(20)));
    out.push_back(mutate(source, edits, rng));
  }
  return out;
}

}  // namespace qcgen::testing_support
