// ABL-RAG: RAG-pipeline ablation (DESIGN.md §5, paper Sec V-C/V-E).
//
// The paper attributes RAG's weak improvement to (1) out-of-date
// documentation and (2) a "basic RAG splitting technique, which does not
// take into account code structure". This ablation varies both factors:
// corpus staleness 0 / 0.35 (paper) / 0.70, and basic vs structure-aware
// chunking, plus which corpus is attached (API docs vs algorithm guides).

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/runner.hpp"
#include "harness.hpp"

using namespace qcgen;

int main(int argc, char** argv) {
  bench::Harness harness("ablation_rag", argc, argv, {.samples = 3});
  trace::SinkScope trace_scope(harness.trace_sink());
  const auto suite = eval::semantic_suite();
  eval::RunnerOptions options;
  options.samples_per_case = harness.samples();
  options.seed = harness.seed();
  options.threads = harness.threads();
  options.trace = harness.trace_sink();
  options.chaos_scenario = harness.scenario();

  using agents::TechniqueConfig;
  const auto profile = llm::ModelProfile::kStarCoder3B;

  std::printf("ABL-RAG: retrieval ablation on the semantic suite "
              "(fine-tuned base, %zu samples/case)\n\n", harness.samples());

  struct Row {
    std::string name;
    TechniqueConfig config;
  };
  std::vector<Row> rows;
  rows.push_back({"no rag", TechniqueConfig::fine_tuned_only(profile)});
  {
    TechniqueConfig c = TechniqueConfig::fine_tuned_only(profile);
    c.rag_api = true;
    rows.push_back({"api docs only", c});
  }
  {
    TechniqueConfig c = TechniqueConfig::fine_tuned_only(profile);
    c.rag_guides = true;
    rows.push_back({"guides only", c});
  }
  rows.push_back({"both (paper, stale=0.35, basic chunks)",
                  TechniqueConfig::with_rag(profile)});
  {
    TechniqueConfig c = TechniqueConfig::with_rag(profile);
    c.api_stale_fraction = 0.0;
    rows.push_back({"both, fresh corpus (stale=0.0)", c});
  }
  {
    TechniqueConfig c = TechniqueConfig::with_rag(profile);
    c.api_stale_fraction = 0.70;
    rows.push_back({"both, very stale corpus (stale=0.7)", c});
  }
  {
    TechniqueConfig c = TechniqueConfig::with_rag(profile);
    c.chunking = llm::ChunkStrategy::kStructureAware;
    rows.push_back({"both, structure-aware chunking", c});
  }
  {
    TechniqueConfig c = TechniqueConfig::with_rag(profile);
    c.chunking = llm::ChunkStrategy::kStructureAware;
    c.api_stale_fraction = 0.0;
    rows.push_back({"both, fresh + structure-aware", c});
  }

  Table table({"configuration", "syntactic %", "semantic %",
               "delta vs no-rag"});
  table.set_title("RAG ablation");
  JsonArray json_rows;
  double baseline = 0.0;
  for (const Row& row : rows) {
    const eval::AccuracyReport report =
        eval::evaluate_technique(row.config, suite, options);
    if (baseline == 0.0) baseline = report.semantic_rate;
    table.add_row({row.name, format_double(100 * report.syntactic_rate, 1),
                   format_double(100 * report.semantic_rate, 1),
                   format_double(100 * (report.semantic_rate - baseline), 1)});
    Json record;
    record["configuration"] = row.name;
    record["syntactic_rate"] = report.syntactic_rate;
    record["semantic_rate"] = report.semantic_rate;
    json_rows.push_back(std::move(record));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Shape checks: at the paper configuration RAG moves the "
              "semantic score by no more than seed noise, a few points either "
              "way (the paper reports a gain of about 4). A fresh corpus "
              "scores above the paper configuration, and a very stale one "
              "scores about level with it: duplicated legacy tutorials "
              "dilute their own BM25 term weights. The chunking strategy "
              "barely moves the needle at this corpus scale -- how out of "
              "date the documentation is, not how it is split, is what "
              "separates the rows (paper Sec V-E).\n");
  harness.record("rows", Json(std::move(json_rows)));
  harness.set_trials(rows.size() * suite.size() * harness.samples());
  return harness.finish();
}
