#pragma once
// Experiment runner: evaluates a technique configuration over a suite and
// produces the accuracy numbers the benchmark binaries print.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agents/codegen_agent.hpp"
#include "agents/pipeline.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "eval/judge.hpp"
#include "eval/parallel.hpp"
#include "eval/suite.hpp"

namespace qcgen::eval {

/// Accuracy summary for one technique configuration over one suite.
struct AccuracyReport {
  std::string label;
  std::size_t cases = 0;
  std::size_t samples_per_case = 1;
  double syntactic_rate = 0.0;
  double semantic_rate = 0.0;  ///< syntactically AND semantically valid
  std::map<llm::Tier, double> semantic_by_tier;
  double mean_passes_used = 1.0;
  Interval semantic_ci;  ///< Wilson 95% over all samples
  /// Contained trial failures, in trial index order. Failed trials stay
  /// in every rate denominator (a trial that did not complete is not a
  /// success) but are excluded from mean_passes_used.
  std::vector<TrialFailure> trial_failures;
  /// Every degradation-ladder step taken: matrix-level events first,
  /// then per-trial events in trial index order.
  std::vector<DegradationRecord> degradations;
  /// Fraction of trials that completed (1.0 when nothing failed).
  double completed_rate = 1.0;
};

/// Runner options shared across experiments.
struct RunnerOptions {
  std::size_t samples_per_case = 3;
  std::uint64_t seed = 2025;
  /// Worker threads for the trial scheduler; 0 = all hardware threads.
  /// Reports are bit-identical at any thread count (each trial draws
  /// from an independent RNG stream; see eval/parallel.hpp).
  std::size_t threads = 0;
  agents::SemanticAnalyzerAgent::Options analyzer;
  /// Optional tracing: when set, run_trial_matrix gives every trial its
  /// own TraceSink and merges them into this sink in trial index order
  /// (summaries stay bit-identical at any thread count). The bench
  /// harness wires its --trace sink through here.
  trace::TraceSink* trace = nullptr;
  /// Fault-injection scenario (failpoint::Scenario grammar, e.g.
  /// "llm.generate=error(0.02);qec.decode=error(1.0)@pass>1"); empty
  /// disarms injection. Parsed once per matrix; malformed specs throw
  /// InvalidArgumentError before any trial runs.
  std::string chaos_scenario;
  /// Stage retry/budget/degradation policy applied to every pipeline.
  agents::ResilienceOptions resilience;
  /// Optional QEC planning stage for every trial (exercises the decoder
  /// degradation ladder); requires `device`.
  std::optional<agents::QecDecoderAgent::Options> qec;
  std::optional<agents::DeviceTopology> device;
};

/// Evaluates one technique configuration (pass@1 over samples).
AccuracyReport evaluate_technique(const agents::TechniqueConfig& technique,
                                  const std::vector<TestCase>& suite,
                                  const RunnerOptions& options);

/// pass@k over the suite with n samples per case.
double evaluate_pass_at_k(const agents::TechniqueConfig& technique,
                          const std::vector<TestCase>& suite,
                          std::size_t n_samples, std::size_t k,
                          const RunnerOptions& options);

/// Serialises contained trial failures / degradation records for the
/// bench report's `trial_failures` / `degradations` sections.
Json trial_failures_to_json(const std::vector<TrialFailure>& failures);
Json degradations_to_json(const std::vector<DegradationRecord>& records);

}  // namespace qcgen::eval
