// Grover search, end to end: the workload the paper's intermediate tier
// stresses. Compares technique configurations on the same task, prints
// the winning program, and runs it under device noise.
//
//   ./build/examples/grover_pipeline [marked-state]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "agents/pipeline.hpp"
#include "agents/topology.hpp"
#include "common/table.hpp"
#include "llm/templates.hpp"
#include "qasm/builder.hpp"
#include "sim/noise.hpp"

using namespace qcgen;

int main(int argc, char** argv) {
  const int marked = argc > 1 ? std::atoi(argv[1]) : 5;
  if (marked < 0 || marked > 7) {
    std::printf("marked state must be in 0..7\n");
    return 1;
  }

  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kGrover;
  task.params = {{"n", 3}, {"marked", double(marked)}, {"iterations", 2}};
  std::printf("Prompt: %s\n\n", llm::prompt_text(task).c_str());

  const sim::Distribution reference =
      sim::exact_distribution(qasm::build_circuit(llm::gold_program(task)));

  // How often does each technique produce a valid Grover implementation?
  using agents::TechniqueConfig;
  const auto profile = llm::ModelProfile::kStarCoder3B;
  struct Candidate {
    const char* name;
    TechniqueConfig config;
  };
  const Candidate candidates[] = {
      {"fine-tuned", TechniqueConfig::fine_tuned_only(profile)},
      {"fine-tuned + CoT", TechniqueConfig::with_cot(profile)},
      {"fine-tuned + SCoT", TechniqueConfig::with_scot(profile)},
  };

  Table table({"technique", "valid / 20 samples"});
  table.set_title("Grover generation success by technique");
  std::string best_source;
  std::shared_ptr<const sim::Circuit> best_circuit;
  for (const Candidate& candidate : candidates) {
    agents::MultiAgentPipeline pipeline(
        candidate.config, agents::SemanticAnalyzerAgent::Options(),
        std::nullopt, std::nullopt, 11);
    int valid = 0;
    for (int i = 0; i < 20; ++i) {
      const auto result = pipeline.run(task, reference, 0);
      if (result.semantic_ok) {
        ++valid;
        best_source = result.generation.source;
        best_circuit = result.circuit;
      }
    }
    table.add_row({candidate.name, std::to_string(valid)});
  }
  std::printf("%s\n", table.to_string().c_str());

  if (best_circuit == nullptr) {
    std::printf("no valid program generated; try another seed\n");
    return 1;
  }
  std::printf("--- accepted program ----------------------------------\n%s"
              "--------------------------------------------------------\n\n",
              best_source.c_str());

  // Ideal vs noisy execution.
  const Counts ideal = sim::run_ideal(*best_circuit, sim::RunOptions{2048, 3});
  const Counts noisy = sim::run_noisy(
      *best_circuit, sim::NoiseModel::ibm_brisbane(),
      sim::NoisyRunOptions{2048, 3});
  std::string target(3, '0');
  for (int b = 0; b < 3; ++b) {
    if ((marked >> b) & 1) target[2 - b] = '1';
  }
  std::printf("P(|%s>): ideal %.3f, under IBM-Brisbane-like noise %.3f\n",
              target.c_str(), outcome_probability(ideal, target),
              outcome_probability(noisy, target));
  return 0;
}
