// TAB1: reproduces the paper's Table I — Qiskit-HumanEval-style scores
// per model configuration.
//
// Paper rows: Starcoder2-7B 17.9 / +QK 24.5 / +QKRAG 33.8 / +QKCoT 41.4 /
// IBM Granite-20B-CODE-QK 46.5. The QHE suite stresses library-specific
// syntax (evaluated at elevated syntax difficulty), which is why the paper
// finds RAG helps here much more than on the semantic suite (Sec V-C).
// This reproduction does not show that gain (see EXPERIMENTS.md).

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/runner.hpp"
#include "harness.hpp"

using namespace qcgen;

int main(int argc, char** argv) {
  bench::Harness harness("table1_qhe", argc, argv, {.samples = 4});
  trace::SinkScope trace_scope(harness.trace_sink());
  const auto suite = eval::qhe_suite();
  std::printf("TAB1: Qiskit-HumanEval-style scores (%zu prompts, syntax "
              "difficulty x%.2f)\n\n",
              suite.size(), eval::kQheSyntaxDifficulty);

  eval::RunnerOptions options;
  options.samples_per_case = harness.samples();
  options.seed = harness.seed();
  options.threads = harness.threads();
  options.trace = harness.trace_sink();
  options.chaos_scenario = harness.scenario();

  using agents::TechniqueConfig;
  using llm::ModelProfile;
  struct Row {
    std::string name;
    TechniqueConfig config;
    double paper;
  };
  const auto qhe = [](TechniqueConfig c) {
    c.syntax_difficulty = eval::kQheSyntaxDifficulty;
    return c;
  };
  // Granite ships already Qiskit-tuned: its base knowledge profile IS the
  // "-QK" row, so no extra fine-tuning pass is applied.
  TechniqueConfig granite = TechniqueConfig::base(ModelProfile::kGranite20B);
  const std::vector<Row> rows = {
      {"starcoder2-7b", qhe(TechniqueConfig::base(ModelProfile::kStarCoder7B)),
       17.9},
      {"starcoder2-7b-qk",
       qhe(TechniqueConfig::fine_tuned_only(ModelProfile::kStarCoder7B)), 24.5},
      {"starcoder2-7b-qkrag",
       qhe(TechniqueConfig::with_rag(ModelProfile::kStarCoder7B)), 33.8},
      {"starcoder2-7b-qkcot",
       qhe(TechniqueConfig::with_cot(ModelProfile::kStarCoder7B)), 41.4},
      {"granite-20b-code-qk", qhe(granite), 46.5},
  };

  Table table({"model", "QHE score %", "syntactic %", "paper %"});
  table.set_title("Table I reproduction");
  std::vector<std::pair<std::string, double>> chart;
  JsonArray json_rows;
  for (const Row& row : rows) {
    const eval::AccuracyReport report =
        eval::evaluate_technique(row.config, suite, options);
    table.add_row({row.name, format_double(100 * report.semantic_rate, 1),
                   format_double(100 * report.syntactic_rate, 1),
                   format_double(row.paper, 1)});
    chart.emplace_back(row.name, 100 * report.semantic_rate);
    Json record;
    record["model"] = row.name;
    record["semantic_rate"] = report.semantic_rate;
    record["syntactic_rate"] = report.syntactic_rate;
    record["paper_score"] = row.paper;
    json_rows.push_back(std::move(record));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("%s\n", bar_chart(chart, 50.0, 50, "%").c_str());
  std::printf("Shape checks: QK > base and 7B+CoT > QK by wide margins on "
              "this syntax-heavy benchmark. The RAG row sits within seed "
              "noise of QK, not the paper's 9-point gain, and whether the "
              "20B reference model leads 7B+CoT depends on the seed.\n");
  harness.record("rows", Json(std::move(json_rows)));
  harness.set_trials(rows.size() * suite.size() * harness.samples());
  return harness.finish();
}
