// Quickstart: drive the multi-agent pipeline on a single prompt.
//
// Shows the core public API:
//   1. pick a task (a natural-language prompt with ground-truth spec),
//   2. configure a technique (fine-tuned model + structured CoT here),
//   3. run the pipeline: generation -> semantic analysis -> repair,
//   4. inspect the generated QasmLite program and its behaviour.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "agents/pipeline.hpp"
#include "common/table.hpp"
#include "llm/templates.hpp"
#include "sim/draw.hpp"
#include "qasm/builder.hpp"
#include "sim/statevector.hpp"

using namespace qcgen;

int main() {
  // 1. The task: prepare a 3-qubit GHZ state.
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kGhz;
  task.params = {{"n", 3}};
  std::printf("Prompt: %s\n\n", llm::prompt_text(task).c_str());

  // 2. Technique: fine-tuned StarCoder-3B stand-in with SCoT prompting
  //    and up to 3 inference passes.
  agents::TechniqueConfig technique =
      agents::TechniqueConfig::with_scot(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;

  // 3. The reference behaviour the semantic analyzer checks against
  //    (in the evaluation harness this comes from the gold solution).
  const sim::Distribution reference =
      sim::exact_distribution(qasm::build_circuit(llm::gold_program(task)));

  agents::MultiAgentPipeline pipeline(technique,
                                      agents::SemanticAnalyzerAgent::Options(),
                                      std::nullopt, std::nullopt, /*seed=*/1);

  // 4. Run until we obtain a valid program (the model is stochastic).
  agents::PipelineResult result;
  int attempts = 0;
  do {
    result = pipeline.run(task, reference, /*prompt_index=*/0);
    ++attempts;
  } while (!result.semantic_ok && attempts < 16);

  std::printf("Result after %d attempt(s), %d pass(es): %s\n\n", attempts,
              result.passes_used,
              result.semantic_ok ? "syntactically and semantically VALID"
                                 : "still failing");
  std::printf("--- generated program ---------------------------------\n%s"
              "--------------------------------------------------------\n\n",
              result.generation.source.c_str());

  if (result.circuit != nullptr) {
    std::printf("Circuit diagram:\n%s\n", sim::draw(*result.circuit).c_str());
    const Counts counts =
        sim::run_ideal(*result.circuit, sim::RunOptions{1024, 7});
    std::printf("Sampled counts (1024 shots):\n");
    std::vector<std::pair<std::string, double>> bars;
    for (const auto& [key, count] : counts) {
      bars.emplace_back(key, static_cast<double>(count));
    }
    std::printf("%s\n", bar_chart(bars, 0.0, 40, " shots").c_str());
  }

  // The per-pass trace shows the repair loop at work.
  std::printf("Pass trace:\n");
  for (const auto& pass : result.trace) {
    std::printf("  pass %d: syntactic=%s semantic=%s errors=%zu\n", pass.pass,
                pass.syntactic_ok ? "ok" : "FAIL",
                pass.semantic_ok ? "ok" : "FAIL", pass.error_count);
  }
  return result.semantic_ok ? 0 : 1;
}
