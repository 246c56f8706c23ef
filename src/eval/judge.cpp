#include "eval/judge.hpp"

#include <algorithm>

#include "common/cache/cache.hpp"
#include "common/failpoint.hpp"
#include "qasm/builder.hpp"
#include "sim/statevector.hpp"

namespace qcgen::eval {

namespace {

/// The process-wide table behind every oracle, keyed like shared_gold.
std::shared_ptr<const GoldReference> shared_reference(
    const llm::TaskSpec& task) {
  static cache::Cache<GoldReference> table(cache::CacheOptions{});
  return table.get_or_compute(llm::task_digest(task), [&] {
    std::shared_ptr<const llm::GoldProgram> gold = llm::shared_gold(task);
    sim::Distribution reference =
        sim::exact_distribution(qasm::build_circuit(gold->program));
    return GoldReference{std::move(gold), std::move(reference)};
  });
}

}  // namespace

const sim::Distribution& ReferenceOracle::reference_for(
    const TestCase& test_case) {
  auto it = cache_.find(test_case.id);
  if (it != cache_.end()) return it->second->reference;
  failpoint::trip("oracle.reference");
  return cache_.emplace(test_case.id, shared_reference(test_case.task))
      .first->second->reference;
}

void ReferenceOracle::prewarm(const std::vector<TestCase>& suite) {
  for (const TestCase& test_case : suite) reference_for(test_case);
}

const sim::Distribution* ReferenceOracle::find(
    const std::string& case_id) const {
  const auto it = cache_.find(case_id);
  return it != cache_.end() ? &it->second->reference : nullptr;
}

std::shared_ptr<const llm::GoldProgram> ReferenceOracle::gold(
    const std::string& case_id) const {
  const auto it = cache_.find(case_id);
  return it != cache_.end() ? it->second->gold : nullptr;
}

Verdict judge_source(const std::string& source,
                     const sim::Distribution& reference,
                     const agents::SemanticAnalyzerAgent& analyzer) {
  Verdict verdict;
  const std::shared_ptr<const agents::StaticReport> static_report =
      analyzer.analyze(source);
  verdict.error_count = static_report->diagnostics.size();
  verdict.only_syntactic_errors = std::all_of(
      static_report->diagnostics.begin(), static_report->diagnostics.end(),
      [](const qasm::Diagnostic& d) {
        return d.severity != qasm::Severity::kError || qasm::is_syntactic(d.code);
      });
  verdict.syntactic_ok = static_report->syntactic_ok;
  if (!verdict.syntactic_ok) return verdict;
  const agents::BehaviorReport behavior =
      analyzer.check_behavior(*static_report, reference);
  verdict.semantic_ok = behavior.matches;
  verdict.tvd = behavior.tvd;
  return verdict;
}

}  // namespace qcgen::eval
