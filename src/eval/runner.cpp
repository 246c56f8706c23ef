#include "eval/runner.hpp"

#include "common/error.hpp"
#include "eval/parallel.hpp"
#include "llm/passk.hpp"

namespace qcgen::eval {

AccuracyReport evaluate_technique(const agents::TechniqueConfig& technique,
                                  const std::vector<TestCase>& suite,
                                  const RunnerOptions& options) {
  require(!suite.empty(), "evaluate_technique: empty suite");
  require(options.samples_per_case >= 1,
          "evaluate_technique: samples_per_case >= 1");

  AccuracyReport report;
  report.label = technique.label();
  report.cases = suite.size();
  report.samples_per_case = options.samples_per_case;

  std::size_t syntactic = 0;
  std::size_t semantic = 0;
  std::size_t completed = 0;
  std::size_t passes_total = 0;
  std::map<llm::Tier, std::pair<std::size_t, std::size_t>> by_tier;

  // Trials are visited in index order regardless of worker schedule, so
  // this fold (including the double sums) is thread-count invariant.
  const TrialMatrix matrix = run_trial_matrix(
      technique, suite, options.samples_per_case, options,
      [&](const Trial& trial) {
        // A failed trial stays in every denominator but contributes no
        // successes and no pass count.
        auto& tier_counts = by_tier[suite[trial.case_idx].tier];
        ++tier_counts.second;
        if (trial.failure != nullptr) {
          report.trial_failures.push_back(*trial.failure);
          return;
        }
        const agents::PipelineResult& result = *trial.result;
        for (const agents::DegradationEvent& event : result.degradations) {
          report.degradations.push_back(
              {trial.case_idx, trial.sample_idx, event});
        }
        ++completed;
        passes_total += static_cast<std::size_t>(result.passes_used);
        if (result.syntactic_ok) ++syntactic;
        if (result.semantic_ok) {
          ++semantic;
          ++tier_counts.first;
        }
      });
  // Matrix-level events first, then per-trial events in trial order.
  report.degradations.insert(report.degradations.begin(),
                             matrix.degradations.begin(),
                             matrix.degradations.end());
  const std::size_t total = suite.size() * options.samples_per_case;
  report.syntactic_rate = static_cast<double>(syntactic) / total;
  report.semantic_rate = static_cast<double>(semantic) / total;
  report.mean_passes_used =
      completed == 0 ? 0.0
                     : static_cast<double>(passes_total) / completed;
  report.completed_rate = static_cast<double>(completed) / total;
  report.semantic_ci = wilson_interval(semantic, total);
  for (const auto& [tier, counts] : by_tier) {
    report.semantic_by_tier[tier] =
        counts.second == 0
            ? 0.0
            : static_cast<double>(counts.first) / counts.second;
  }
  return report;
}

double evaluate_pass_at_k(const agents::TechniqueConfig& technique,
                          const std::vector<TestCase>& suite,
                          std::size_t n_samples, std::size_t k,
                          const RunnerOptions& options) {
  require(!suite.empty(), "evaluate_pass_at_k: empty suite");
  require(k >= 1 && k <= n_samples, "evaluate_pass_at_k: 1 <= k <= n");
  std::vector<std::size_t> correct(suite.size(), 0);
  run_trial_matrix(technique, suite, n_samples, options,
                   [&](const Trial& trial) {
                     // A lost trial (null result) is a miss.
                     if (trial.result != nullptr && trial.result->semantic_ok) {
                       ++correct[trial.case_idx];
                     }
                   });
  double total = 0.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    total += llm::pass_at_k(n_samples, correct[i], k);
  }
  return total / static_cast<double>(suite.size());
}

Json trial_failures_to_json(const std::vector<TrialFailure>& failures) {
  Json out{JsonArray{}};
  for (const TrialFailure& failure : failures) {
    Json entry;
    entry["case"] = Json(failure.case_idx);
    entry["sample"] = Json(failure.sample_idx);
    entry["stage"] = Json(failure.stage);
    entry["site"] = Json(failure.site);
    entry["retries"] = Json(failure.retries);
    entry["what"] = Json(failure.what);
    out.push_back(std::move(entry));
  }
  return out;
}

Json degradations_to_json(const std::vector<DegradationRecord>& records) {
  Json out{JsonArray{}};
  for (const DegradationRecord& record : records) {
    Json entry;
    entry["case"] = Json(record.case_idx);
    entry["sample"] = Json(record.sample_idx);
    entry["pass"] = Json(record.event.pass);
    entry["stage"] = Json(record.event.stage);
    entry["from"] = Json(record.event.from);
    entry["to"] = Json(record.event.to);
    entry["reason"] = Json(record.event.reason);
    entry["site"] = Json(record.event.site);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qcgen::eval
