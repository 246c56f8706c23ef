#pragma once
// Multi-agent pipeline (paper Fig 1): code generation -> semantic
// analysis -> iterative multi-pass repair -> optional QEC planning.
//
// The pipeline is the resilience boundary of the system: every stage
// runs under ResilienceOptions, which give deterministic seeded
// retry-with-backoff, per-stage budget limits, and graceful-degradation
// ladders (abstract interpreter -> core lints only; MWPM decoder ->
// union-find -> lookup; behavioural verification -> static-only;
// RAG retrieval -> bare generation), all walked by one rung helper. Each
// step is recorded as a DegradationEvent on the pass trace and the final
// result; a stage that stays down after its ladder is exhausted raises
// PipelineStageError, which the trial scheduler contains as a
// TrialFailure instead of letting it abort the experiment.

#include <functional>
#include <optional>
#include <vector>

#include "agents/codegen_agent.hpp"
#include "agents/qec_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/topology.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace qcgen::agents {

/// Virtual cost charged against the request's deadline budget
/// (cancel::charge) as each stage completes, in the same abstract units
/// injected delays and retry backoff already consume. Only meaningful
/// when a serving layer installed a cancel::DeadlineBudget for the run;
/// without one the charges are no-ops.
struct StageCostModel {
  double generate = 1.0;
  double analyze = 0.5;
  double verify = 0.75;
  double repair = 1.0;
  double qec = 1.5;
};

/// Resilient-execution policy for the pipeline stages. The defaults are
/// fail-fast with ladders enabled, which is behaviour-identical to the
/// pre-resilience pipeline as long as no stage actually fails.
struct ResilienceOptions {
  /// Retry attempts after a stage's first failure (0 = fail fast).
  int max_stage_retries = 0;
  /// Backoff charged per retry, in abstract budget units:
  /// base * 2^attempt * (1 + jitter), jitter in [0, 0.5) drawn from the
  /// pipeline's seeded stream — deterministic, no wall-clock sleeping.
  double backoff_base_units = 1.0;
  /// Budget per stage invocation in abstract units; 0 = unlimited.
  /// Injected delays and retry backoff both consume it; exhausting it
  /// fails the stage.
  double stage_budget_units = 0.0;
  /// Walk degradation ladders when retries are exhausted.
  bool degrade = true;
  /// Per-stage deadline-budget charges (see StageCostModel).
  StageCostModel stage_costs;
  /// Budget-pressure thresholds (cancel::budget_pressure, consumed /
  /// deadline) above which the ladders pre-degrade *before* the stage
  /// runs, spending the remaining budget on the cheap configuration
  /// instead of burning it and hard-cancelling mid-flight: past
  /// pressure_no_rag generate/repair drop RAG, past
  /// pressure_static_only verification goes static-only. Only requests
  /// with an installed deadline ever report pressure > 0.
  double pressure_no_rag = 0.55;
  double pressure_static_only = 0.8;
};

/// One rung taken on a degradation ladder (or a terminal "gave up"
/// marker when `to` is "none"/"abort").
struct DegradationEvent {
  int pass = 0;        ///< repair pass it happened in (0 = outside loop)
  std::string stage;   ///< "generate", "analyze", "verify", "repair",
                       ///< "qec", "oracle"
  std::string from;    ///< rung degraded from, e.g. "mwpm", "abstract-lints"
  std::string to;      ///< rung degraded to, e.g. "union-find", "core-lints"
  std::string reason;  ///< the failure that forced the step
  /// Fail-point site of the failure that forced the step ("" for organic
  /// failures and for budget-pressure pre-degradations). Circuit
  /// breakers attribute per-site failures through this field.
  std::string site;
  friend bool operator==(const DegradationEvent&,
                         const DegradationEvent&) = default;
};

/// Raised when a mandatory stage stays down after retries and ladders
/// are exhausted. The trial scheduler converts it into a structured
/// TrialFailure; it never escapes eval::run_trial_matrix.
class PipelineStageError : public QcgenError {
 public:
  PipelineStageError(std::string stage, std::string site, int retries,
                     const std::string& what)
      : QcgenError(what),
        stage_(std::move(stage)),
        site_(std::move(site)),
        retries_(retries) {}
  const std::string& stage() const noexcept { return stage_; }
  /// Fail-point site that caused the failure ("" for organic failures).
  const std::string& site() const noexcept { return site_; }
  int retries() const noexcept { return retries_; }

 private:
  std::string stage_;
  std::string site_;
  int retries_ = 0;
};

/// Per-pass trace entry.
struct PassTrace {
  int pass = 0;
  bool syntactic_ok = false;
  bool semantic_ok = false;
  double tvd = 1.0;
  std::size_t error_count = 0;
  std::string error_trace;
  /// Structured diagnostics behind `error_trace` (including abstract.*
  /// facts), so eval/bench tooling can classify without string-scraping;
  /// serialise with qasm::diagnostics_to_json.
  std::vector<qasm::Diagnostic> diagnostics;
  /// Degradation-ladder steps taken during this pass.
  std::vector<DegradationEvent> degradations;
  /// Translation-validation certificate for the repair step that produced
  /// this pass's source (verify::certificate_summary rendering; empty on
  /// pass 1 or when either side of the rewrite does not lower).
  std::string repair_certificate;
  /// True when the repair was certification-obligated (every diagnostic it
  /// was asked to fix claimed semantic preservation) and the checker
  /// proved the rewrite non-preserving.
  bool repair_rejected = false;
};

/// Final pipeline outcome for one task.
struct PipelineResult {
  bool syntactic_ok = false;
  bool semantic_ok = false;
  int passes_used = 0;
  std::vector<PassTrace> trace;
  llm::GenerationResult generation;  ///< final artifact
  std::optional<sim::Circuit> circuit;
  std::optional<QecPlan> qec;
  /// Every degradation-ladder step taken, in occurrence order (the
  /// per-pass subset also appears on the matching PassTrace).
  std::vector<DegradationEvent> degradations;
  /// Total stage retry attempts spent across the run.
  int stage_retries = 0;
  /// Budget units consumed by injected delays plus retry backoff.
  double budget_consumed = 0.0;
  /// Repair steps the equivalence checker certified as preserving
  /// (proved-equal before/after circuits).
  int certified_repairs = 0;
  /// Repair steps proven non-preserving although every diagnostic they
  /// addressed claimed preservation (see PassTrace::repair_rejected).
  int rejected_repairs = 0;
};

/// Shared memoization layers handed to a pipeline. The content-addressed
/// generation cache comes from the serving path only (it reseeds the
/// model from the cache key); see CodeGenAgent::set_content_addressed.
/// The analysis cache and the QEC lifetime memo are handed out by both
/// the server and eval::run_trial_matrix: each returns exactly what a
/// recompute would, and an analysis hit replays the trace summary its
/// compute recorded (SemanticAnalyzerAgent::set_analysis_cache).
struct PipelineCaches {
  /// Engage content-addressed generation even when `generation` is null
  /// — the pure-recompute bypass certification tests run against.
  bool content_addressed = false;
  std::shared_ptr<GenerationCache> generation;
  std::shared_ptr<AnalysisCache> analysis;
  std::shared_ptr<QecLifetimeMemo> qec_lifetime;
};

class MultiAgentPipeline {
 public:
  /// `device` enables the QEC agent stage; nullopt skips it (the Fig 3 /
  /// Table I experiments run without QEC, Fig 4 with it).
  MultiAgentPipeline(const TechniqueConfig& technique,
                     SemanticAnalyzerAgent::Options analyzer_options,
                     std::optional<QecDecoderAgent::Options> qec_options,
                     std::optional<DeviceTopology> device,
                     std::uint64_t seed);

  /// Shares an immutable corpora/knowledge bundle built once for the
  /// technique (see TechniqueResources): the cheap per-pipeline state is
  /// just the SimLM and the analyzer, so a trial scheduler can construct
  /// one pipeline per (case, sample) trial without re-indexing corpora.
  MultiAgentPipeline(const TechniqueConfig& technique,
                     std::shared_ptr<const TechniqueResources> resources,
                     SemanticAnalyzerAgent::Options analyzer_options,
                     std::optional<QecDecoderAgent::Options> qec_options,
                     std::optional<DeviceTopology> device,
                     std::uint64_t seed);

  CodeGenAgent& codegen() { return codegen_; }
  const SemanticAnalyzerAgent& analyzer() const { return analyzer_; }

  const ResilienceOptions& resilience() const noexcept { return resilience_; }
  void set_resilience(const ResilienceOptions& options) {
    resilience_ = options;
  }

  /// Admission-control hook (serve layer): every run() starts the
  /// generate/repair ladder below its rag rung, so generation and repair
  /// bypass the RAG stores — the same reduced configuration a retrieval
  /// failure would degrade to at runtime.
  void set_rag_enabled(bool enabled) noexcept { rag_enabled_ = enabled; }

  /// Wires the shared caches through to the agents (the retrieval cache
  /// rides inside the shared TechniqueResources and needs no per-
  /// pipeline hookup). The degraded analyzer rung shares the analysis
  /// cache too; its different lint configuration keys it apart.
  void set_caches(PipelineCaches caches);

  /// Runs generation + analysis (+ repair passes up to the technique's
  /// max_passes) on one task. `reference` enables the behavioural check;
  /// pass an empty distribution to restrict to static verification.
  /// `prompt_index` feeds the CoT hand-written-scaffold rule.
  /// Throws PipelineStageError when a mandatory stage stays down after
  /// the resilience policy (retries + ladders) is exhausted.
  PipelineResult run(const llm::TaskSpec& task,
                     const sim::Distribution& reference,
                     std::size_t prompt_index);

  /// Degradation events accumulated by the most recent run(), preserved
  /// even when the run threw (PipelineStageError / CancelledError): an
  /// aborted request's ladder steps are its per-site fault evidence, and
  /// the serving layer's circuit breakers copy them off the wreck.
  const std::vector<DegradationEvent>& last_degradations() const noexcept {
    return last_degradations_;
  }

 private:
  /// run()'s body, writing into a caller-owned result so partial state
  /// (degradations in particular) survives a mid-run throw.
  void run_into(PipelineResult& result, const llm::TaskSpec& task,
                const sim::Distribution& reference, std::size_t prompt_index);

  struct Ladder;  ///< one stage invocation's ladder (pipeline.cpp)
  /// The rung helper every ladder walks through (see pipeline.cpp).
  std::size_t walk(PipelineResult& result, const Ladder& ladder,
                   const std::function<void(std::size_t)>& run,
                   bool pressed = false);

  /// Analyzer with the abstract interpreter disabled — the "core lints
  /// only" ladder rung; constructed lazily on first degradation.
  const SemanticAnalyzerAgent& degraded_analyzer();

  CodeGenAgent codegen_;
  SemanticAnalyzerAgent analyzer_;
  PipelineCaches caches_;
  std::optional<SemanticAnalyzerAgent> degraded_analyzer_;
  std::optional<QecDecoderAgent> qec_agent_;
  std::optional<DeviceTopology> device_;
  ResilienceOptions resilience_;
  bool rag_enabled_ = true;  ///< admission rag rung (see setter)
  Rng resilience_rng_;  ///< seeded backoff jitter (per-trial stream)
  std::vector<DegradationEvent> last_degradations_;  ///< see accessor
};

}  // namespace qcgen::agents
