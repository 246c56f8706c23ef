#include "eval/judge.hpp"

#include <algorithm>

#include "common/failpoint.hpp"
#include "llm/templates.hpp"
#include "qasm/builder.hpp"
#include "qasm/printer.hpp"
#include "sim/statevector.hpp"

namespace qcgen::eval {

const sim::Distribution& ReferenceOracle::reference_for(
    const TestCase& test_case) {
  auto it = cache_.find(test_case.id);
  if (it != cache_.end()) return it->second.reference;
  failpoint::trip("oracle.reference");
  auto gold =
      std::make_shared<const qasm::Program>(llm::gold_program(test_case.task));
  const sim::Circuit circuit = qasm::build_circuit(*gold);
  sim::Distribution reference = sim::exact_distribution(circuit);
  return cache_
      .emplace(test_case.id, Entry{std::move(reference), std::move(gold)})
      .first->second.reference;
}

void ReferenceOracle::prewarm(const std::vector<TestCase>& suite) {
  for (const TestCase& test_case : suite) reference_for(test_case);
}

const sim::Distribution* ReferenceOracle::find(
    const std::string& case_id) const {
  const auto it = cache_.find(case_id);
  return it != cache_.end() ? &it->second.reference : nullptr;
}

std::shared_ptr<const qasm::Program> ReferenceOracle::gold(
    const std::string& case_id) const {
  const auto it = cache_.find(case_id);
  return it != cache_.end() ? it->second.gold : nullptr;
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
