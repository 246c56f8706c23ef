// SEC5DE-TAX: error-class taxonomy of generation failures.
//
// The paper attributes residual failures to specific classes: "mostly
// the misuse of imports or the use of deprecated code" after multi-pass
// repair (Sec V-D), and "syntactically correct but semantically invalid
// code" from bad CoT scaffolds (Sec V-E). This bench reproduces that
// analysis: for each technique, failed samples are bucketed by their
// dominant error class. Under --scenario, trials that threw count as
// failed in no class and are listed in trial_failures, rows in order.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "agents/pipeline.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/parallel.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "harness.hpp"
#include "qasm/diagnostics.hpp"

using namespace qcgen;

namespace {

/// Failure buckets, coarsest-that-matters granularity.
enum class Bucket {
  kImportMisuse,     // deprecated/unknown/missing imports
  kMalformed,        // lex/parse failures
  kGateMisuse,       // unknown gate / arity / params / indices
  kSemanticPlan,     // wrong algorithm or structure (behaviour mismatch)
  kSemanticDetail,   // right plan, wrong detail (slips)
  kOther,
};

const char* bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kImportMisuse: return "import misuse";
    case Bucket::kMalformed: return "malformed code";
    case Bucket::kGateMisuse: return "gate misuse";
    case Bucket::kSemanticPlan: return "wrong algorithm/plan";
    case Bucket::kSemanticDetail: return "semantic slip";
    case Bucket::kOther: return "other";
  }
  return "?";
}

/// Classifies one failed pipeline result.
Bucket classify(const agents::PipelineResult& result) {
  if (!result.syntactic_ok) {
    // Key on the structured diagnostic codes the trace now carries
    // (the pass report's diagnostics), not on the rendered error trace.
    using qasm::DiagCode;
    bool malformed = false;
    bool import_misuse = false;
    bool gate_misuse = false;
    for (const qasm::Diagnostic& d : result.trace.back().report->diagnostics) {
      switch (d.code) {
        case DiagCode::kLexError:
        case DiagCode::kParseError:
          malformed = true;
          break;
        case DiagCode::kDeprecatedImport:
        case DiagCode::kUnknownImport:
        case DiagCode::kMissingQiskitImport:
          import_misuse = true;
          break;
        case DiagCode::kUnknownGate:
        case DiagCode::kWrongArity:
        case DiagCode::kWrongParamCount:
        case DiagCode::kQubitOutOfRange:
        case DiagCode::kClbitOutOfRange:
        case DiagCode::kDuplicateQubit:
          gate_misuse = true;
          break;
        default:
          break;
      }
    }
    if (malformed) return Bucket::kMalformed;
    if (import_misuse) return Bucket::kImportMisuse;
    if (gate_misuse) return Bucket::kGateMisuse;
    return Bucket::kOther;
  }
  // Syntactically clean but behaviourally wrong: use the generation
  // artifact's fault records to separate plan errors from slips.
  for (const auto& fault : result.generation.faults) {
    if (fault.kind == llm::FaultKind::kWrongPlan) return Bucket::kSemanticPlan;
  }
  for (const auto& fault : result.generation.faults) {
    if (fault.kind == llm::FaultKind::kSemanticSlip ||
        fault.kind == llm::FaultKind::kMissingMeasure) {
      return Bucket::kSemanticDetail;
    }
  }
  return Bucket::kOther;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("error_taxonomy", argc, argv,
                         {.samples = 3, .seed = 77});
  trace::SinkScope trace_scope(harness.trace_sink());
  const std::size_t samples = harness.samples();
  const auto suite = eval::semantic_suite();
  eval::RunnerOptions options;
  options.samples_per_case = samples;
  options.seed = harness.seed();
  options.threads = harness.threads();
  options.trace = harness.trace_sink();
  options.chaos_scenario = harness.scenario();

  std::printf("SEC5DE-TAX: failure taxonomy per technique (%zu prompts x %zu "
              "samples)\n\n",
              suite.size(), samples);

  using agents::TechniqueConfig;
  const auto profile = llm::ModelProfile::kStarCoder3B;
  struct Row {
    std::string name;
    TechniqueConfig config;
  };
  const std::vector<Row> rows = {
      {"fine-tuned (1 pass)", TechniqueConfig::fine_tuned_only(profile)},
      {"fine-tuned (3 passes)", TechniqueConfig::with_multipass(profile, 3)},
      {"ft+scot (1 pass)", TechniqueConfig::with_scot(profile)},
  };

  const std::vector<Bucket> buckets = {
      Bucket::kImportMisuse, Bucket::kMalformed, Bucket::kGateMisuse,
      Bucket::kSemanticPlan, Bucket::kSemanticDetail, Bucket::kOther};
  std::vector<std::string> headers = {"technique", "failed %"};
  for (Bucket b : buckets) headers.emplace_back(bucket_name(b));
  Table table(std::move(headers));
  table.set_title("Share of FAILED samples by dominant error class "
                  "(percentages of failures)");

  JsonArray json_failures;
  std::vector<eval::TrialFailure> trial_failures;
  std::size_t total_trials = 0;
  for (const Row& row : rows) {
    // Run the whole (case x sample) matrix on the trial scheduler; the
    // visitor classifies each trial in deterministic index order.
    std::map<Bucket, std::size_t> histogram;
    std::size_t failures = 0;
    eval::run_trial_matrix(
        row.config, suite, samples, options, [&](const eval::Trial& trial) {
          if (trial.failure != nullptr) {
            ++failures;
            trial_failures.push_back(*trial.failure);
            return;
          }
          const agents::PipelineResult& result = *trial.result;
          if (result.semantic_ok) return;
          ++failures;
          const Bucket bucket = classify(result);
          ++histogram[bucket];
          Json record;
          record["technique"] = row.name;
          record["prompt"] = trial.case_idx;
          record["sample"] = trial.sample_idx;
          record["bucket"] = bucket_name(bucket);
          record["passes_used"] = result.passes_used;
          record["diagnostics"] = qasm::diagnostics_to_json(
              result.trace.back().report->diagnostics);
          json_failures.push_back(std::move(record));
        });
    const std::size_t trials = suite.size() * samples;
    total_trials += trials;
    std::vector<std::string> cells = {
        row.name,
        format_double(100.0 * failures / trials, 1),
    };
    for (Bucket b : buckets) {
      const double share =
          failures == 0 ? 0.0 : 100.0 * histogram[b] / failures;
      cells.push_back(format_double(share, 1));
    }
    table.add_row(std::move(cells));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape checks: (1) multi-pass repair clears mechanical classes "
      "(malformed code, gate misuse) fastest, making import misuse the "
      "dominant surviving *syntactic* class and wrong-plan the dominant "
      "class overall -- exactly the paper's Sec V-D account of why the "
      "gains plateau; (2) SCoT collapses the wrong-plan share, leaving "
      "syntactic classes (chiefly import misuse) as the bottleneck.\n");
  if (!trial_failures.empty()) {
    std::printf("%zu trials threw: failed, in no class.\n",
                trial_failures.size());
  }
  harness.record("failures", Json(std::move(json_failures)));
  if (!harness.scenario().empty()) {
    harness.record_section("trial_failures",
                           eval::trial_failures_to_json(trial_failures));
  }
  harness.set_trials(total_trials);
  return harness.finish();
}
