#include "agents/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string_view>

#include "common/cancel.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "qasm/verify/certify.hpp"
#include "qec/decoder.hpp"

namespace qcgen::agents {

// The loop-local PassTrace variable is named `trace`, which would shadow
// the qcgen::trace namespace; the alias keeps the span sites readable.
namespace qtrace = ::qcgen::trace;

namespace {

/// One stage's degradation ladder, as constant data.
struct Stage {
  const char* name = "";
  std::span<const std::string_view> rungs{};  ///< top first (QEC: per agent)
  /// Terminal give-up step once the rungs are exhausted, from `floor_from`
  /// (the bottom rung when empty) to `floor_to`; with no floor_to the
  /// stage raises PipelineStageError instead.
  std::string_view floor_from{}, floor_to{};
  bool retrieval_only = false;  ///< rung steps help retrieval faults only
  const char* checkpoint = nullptr;   ///< checked before every rung's run
  const char* charge_site = nullptr;  ///< charged after the top rung's run
  double StageCostModel::*charge_units = nullptr;
};

constexpr std::string_view kRagRungs[] = {"rag", "no-rag"};
constexpr std::string_view kLintRungs[] = {"abstract-lints", "core-lints"};
constexpr std::string_view kVerifyRungs[] = {"behavioral"};

constexpr Stage kGenerate{
    .name = "generate", .rungs = kRagRungs, .retrieval_only = true};
constexpr Stage kAnalyze{.name = "analyze", .rungs = kLintRungs};
constexpr Stage kVerify{.name = "verify",
                        .rungs = kVerifyRungs,
                        .floor_to = "static-only",
                        .checkpoint = "pipeline.verify",
                        .charge_site = "pipeline.verify",
                        .charge_units = &StageCostModel::verify};
/// Terminal rung: repair unavailable — keep the best pass so far instead
/// of failing the trial.
constexpr Stage kRepair{.name = "repair",
                        .rungs = kRagRungs,
                        .floor_from = "multi-pass",
                        .floor_to = "abort",
                        .retrieval_only = true,
                        .charge_site = "pipeline.repair",
                        .charge_units = &StageCostModel::repair};
constexpr Stage kQec{
    .name = "qec", .floor_to = "none", .checkpoint = "pipeline.qec_plan"};

/// The rungs a stage starts on: its whole ladder, or the ladder below the
/// top when the run has taken the top rung away (where a failure there
/// would have degraded to).
std::span<const std::string_view> plan_stage(const Stage& stage, bool top) {
  return top ? stage.rungs : stage.rungs.subspan(1);
}

/// What a run's ladders share: the policy, the seeded backoff stream and
/// the result every step is recorded on.
struct Resilience {
  const ResilienceOptions& options;
  Rng& rng;
  PipelineResult& result;

  /// Walks `stage`'s ladder from `rungs` (see plan_stage), recording each
  /// step with `pass` on the result and on `trace` (when not null). Runs
  /// the current rung as `body(rung)`, rung indexing `rungs`.
  /// A failure is retried with seeded, budget-charged backoff while
  /// retries and the stage budget last (injected delay units count
  /// against both the stage budget and the deadline), then the ladder
  /// steps down one rung and records the step as a DegradationEvent.
  /// `pressed` is a budget-pressure pre-walk: the top rung is stepped past
  /// without running. Returns whether a rung succeeded (false: the stage
  /// fell to its floor); throws PipelineStageError when a failure has
  /// nowhere to step or the policy does not degrade. Behaviour-identical
  /// to a bare body(0) call when nothing throws and no delay fires.
  template <class Body>
  bool walk(const Stage& stage, std::span<const std::string_view> rungs,
            int pass, PassTrace* trace, Body&& body, bool pressed = false) {
    failpoint::Injector* injector = failpoint::current_injector();
    cancel::DeadlineBudget* deadline = cancel::current_budget();
    for (std::size_t rung = 0; rung < rungs.size(); ++rung) {
      std::optional<RunFailure> failure;
      if (rung == 0 && pressed) {
        failure = RunFailure{.what = "budget-pressure"};
      } else {
        if (stage.checkpoint != nullptr) cancel::checkpoint(stage.checkpoint);
        double budget_used = 0.0;
        double delay_mark =
            injector != nullptr ? injector->delay_units_charged() : 0.0;
        const auto over_budget = [&] {
          return options.stage_budget_units > 0.0 &&
                 budget_used > options.stage_budget_units;
        };
        for (int attempt = 0;; ++attempt) {
          failure.reset();
          try {
            body(rung);
          } catch (const cancel::CancelledError&) {
            // A cancellation/deadline observed mid-stage is not a stage
            // failure: never retried, never degraded — it must reach the
            // serving layer as the structured lifecycle outcome.
            throw;
          } catch (const std::exception& error) {
            failure = read_run_failure(error, stage.name);
          }
          if (injector != nullptr) {
            const double now = injector->delay_units_charged();
            budget_used += now - delay_mark;
            result.budget_consumed += now - delay_mark;
            if (deadline != nullptr) deadline->charge(now - delay_mark);
            delay_mark = now;
          }
          if (!failure.has_value()) {
            if (over_budget()) {
              failure = RunFailure{
                  .what = std::string(stage.name) +
                          ": stage budget exhausted by delays"};
            }
            break;
          }
          if (over_budget() || attempt >= options.max_stage_retries) break;
          // Deterministic exponential backoff with seeded jitter, charged
          // in budget units rather than slept (chaos runs stay
          // bit-reproducible).
          const double backoff = options.backoff_base_units *
                                 std::ldexp(1.0, attempt) *
                                 (1.0 + 0.5 * rng.uniform());
          budget_used += backoff;
          result.budget_consumed += backoff;
          if (deadline != nullptr) deadline->charge(backoff);
          ++result.stage_retries;
          qtrace::Metrics::counter("resilience.retries");
          qtrace::Metrics::observe("resilience.backoff_units", backoff);
          if (over_budget()) break;
        }
        if (rung == 0 && stage.charge_site != nullptr) {
          cancel::charge(stage.charge_site,
                         options.stage_costs.*stage.charge_units);
        }
      }
      if (!failure.has_value()) return true;
      const bool next =
          rung + 1 < rungs.size() &&
          (!stage.retrieval_only || failure->site.empty() ||
           failure->site == "retrieval.query");
      if (!options.degrade || (!next && stage.floor_to.empty())) {
        throw PipelineStageError(stage.name, failure->site,
                                 result.stage_retries, failure->what);
      }
      const std::string_view floor_from =
          stage.floor_from.empty() ? rungs.back() : stage.floor_from;
      DegradationEvent event{
          pass, stage.name, std::string(next ? rungs[rung] : floor_from),
          std::string(next ? rungs[rung + 1] : stage.floor_to),
          std::move(failure->what), std::move(failure->site)};
      qtrace::Metrics::counter("resilience.degradations");
      if (trace != nullptr) trace->degradations.push_back(event);
      result.degradations.push_back(std::move(event));
      if (!next) break;
    }
    return false;
  }
};

/// True when every diagnostic the repair was asked to fix carries a
/// preservation claim — only then is a behaviour change a defect rather
/// than the point of the repair.
bool repair_is_preservation_obligated(
    const std::vector<qasm::Diagnostic>& diagnostics) {
  return !diagnostics.empty() &&
         std::all_of(diagnostics.begin(), diagnostics.end(),
                     [](const qasm::Diagnostic& d) {
                       return qasm::verify::fixit_claims_preservation(d.code);
                     });
}

/// Certifies the repair rewrite prev -> current and records the verdict
/// on the pass trace and the pipeline counters. Purely observational:
/// control flow and the RNG streams are untouched, so resilience and
/// chaos runs stay bit-identical.
void certify_repair(PipelineResult& result, PassTrace& trace,
                    const std::optional<sim::Circuit>& prev,
                    const std::optional<sim::Circuit>& current,
                    bool obligated) {
  if (!prev.has_value() || !current.has_value()) return;
  const qasm::verify::Certificate cert =
      qasm::verify::certify_rewrite(*prev, *current, "repair");
  trace.repair_certificate = qasm::verify::certificate_summary(cert);
  if (cert.proved_equal()) {
    ++result.certified_repairs;
    qtrace::Metrics::counter("pipeline.repairs_certified");
  } else if (cert.proved_different() && obligated) {
    trace.repair_rejected = true;
    ++result.rejected_repairs;
    qtrace::Metrics::counter("pipeline.repairs_rejected");
  }
}

}  // namespace

RunFailure read_run_failure(const std::exception& error,
                            const std::string& scope) {
  using cancel::CancelledError;
  using failpoint::InjectedFault;
  if (const auto* cancelled = dynamic_cast<const CancelledError*>(&error)) {
    return {scope, cancelled->site(), 0, error.what(), cancelled->cause()};
  }
  if (const auto* stage = dynamic_cast<const PipelineStageError*>(&error)) {
    return {stage->stage(), stage->site(), stage->retries(), error.what(), {}};
  }
  if (const auto* fault = dynamic_cast<const InjectedFault*>(&error)) {
    return {scope, fault->site(), 0, error.what(), {}};
  }
  return {scope, "", 0, error.what(), {}};
}

MultiAgentPipeline::MultiAgentPipeline(
    const TechniqueConfig& technique,
    SemanticAnalyzerAgent::Options analyzer_options,
    std::optional<QecDecoderAgent::Options> qec_options,
    std::optional<DeviceTopology> device, std::uint64_t seed)
    : MultiAgentPipeline(
          technique, std::make_shared<const TechniqueResources>(technique),
          AnalyzerKit(analyzer_options), std::move(qec_options),
          std::move(device), seed) {}

MultiAgentPipeline::MultiAgentPipeline(
    const TechniqueConfig& technique,
    std::shared_ptr<const TechniqueResources> resources,
    const SemanticAnalyzerAgent::Options& analyzer_options,
    std::optional<QecDecoderAgent::Options> qec_options,
    std::optional<DeviceTopology> device, std::uint64_t seed)
    : MultiAgentPipeline(technique, std::move(resources),
                         AnalyzerKit(analyzer_options), std::move(qec_options),
                         std::move(device), seed) {}

MultiAgentPipeline::MultiAgentPipeline(
    const TechniqueConfig& technique,
    std::shared_ptr<const TechniqueResources> resources,
    const AnalyzerKit& analyzers,
    std::optional<QecDecoderAgent::Options> qec_options,
    std::optional<DeviceTopology> device, std::uint64_t seed)
    : codegen_(technique, std::move(resources), seed),
      analyzer_(analyzers.configured()),
      core_analyzer_(analyzers.core_lints()),
      device_(std::move(device)),
      resilience_rng_(seed ^ 0xc3a5c85c97cb3127ULL) {
  if (qec_options.has_value()) qec_agent_.emplace(*qec_options);
  if (!qec_agent_.has_value() || !device_.has_value()) return;
  // The QEC ladder: configured decoder -> union-find -> lookup (distance 3
  // only; the lookup decoder does not scale past it).
  for (const qec::DecoderKind kind :
       {qec_options->decoder, qec::DecoderKind::kUnionFind,
        qec::DecoderKind::kLookup}) {
    if (qec_rung_count_ > 0 && (kind == qec_options->decoder ||
                                (kind == qec::DecoderKind::kLookup &&
                                 qec_options->target_distance != 3))) {
      continue;
    }
    qec_decoders_[qec_rung_count_] = kind;
    qec_rungs_[qec_rung_count_++] = qec::decoder_kind_name(kind);
  }
}

void MultiAgentPipeline::set_caches(PipelineCaches caches) {
  caches_ = std::move(caches);
  if (caches_.content_addressed || caches_.generation != nullptr) {
    codegen_.set_content_addressed(caches_.generation);
  }
  analyzer_.set_analysis_cache(caches_.analysis);
  core_analyzer_.set_analysis_cache(caches_.analysis);
}

PipelineResult MultiAgentPipeline::run(
    const llm::TaskSpec& task, const sim::Distribution& reference,
    std::size_t prompt_index,
    const std::shared_ptr<const llm::GoldProgram>& gold,
    Rungs start) {
  last_degradations_.clear();
  PipelineResult result;
  try {
    run_into(result, task, reference, prompt_index, gold, start);
  } catch (...) {
    // A throwing run leaves its ladder steps behind: the serving layer
    // attributes per-site fault evidence through them (circuit breakers)
    // even though the partial result itself is discarded.
    last_degradations_ = std::move(result.degradations);
    throw;
  }
  return result;
}

void MultiAgentPipeline::run_into(
    PipelineResult& result, const llm::TaskSpec& task,
    const sim::Distribution& reference, std::size_t prompt_index,
    const std::shared_ptr<const llm::GoldProgram>& gold, Rungs rungs) {
  qtrace::TraceSpan run_span("pipeline.run");
  const bool rag_technique =
      codegen_.config().rag_api || codegen_.config().rag_guides;
  // `rungs` is local to this run: budget-pressure pre-walks lower it for
  // the rest of the run; failure fallbacks never touch it, so they last
  // one invocation only.
  rungs.abstract_lints =
      rungs.abstract_lints && analyzer_.options().analysis.abstract_lints;
  rungs.behavioral = rungs.behavioral && !reference.empty();
  Resilience resilience{resilience_, resilience_rng_, result};
  // Tight deadline budget: pre-walk a ladder before spending any of the
  // remainder on its top rung.
  const auto pressed = [&](double threshold) {
    return resilience_.degrade && cancel::budget_pressure() >= threshold;
  };

  llm::GenerationResult generation;
  cancel::checkpoint("pipeline.generate");
  {
    qtrace::TraceSpan span("pipeline.generate");
    // On a technique without retrieval the rag flag is still handed
    // through: it is part of the generation key.
    const bool pressure =
        rungs.rag && rag_technique && pressed(resilience_.pressure_no_rag);
    resilience.walk(
        kGenerate, plan_stage(kGenerate, rungs.rag && rag_technique), 0,
        nullptr, [&](std::size_t rung) {
          generation = codegen_.generate(task, prompt_index,
                                         rungs.rag && rung == 0, gold);
        },
        pressure);
    if (pressure) rungs.rag = false;
  }
  cancel::charge("pipeline.generate", resilience_.stage_costs.generate);
  const int max_passes = codegen_.config().max_passes;
  result.trace.reserve(static_cast<std::size_t>(max_passes));

  // The previous pass's report (its lowered circuit) and whether its
  // repair carried a preservation obligation — the inputs to repair
  // certification. Reports are shared handles: a cache hit copies nothing.
  std::shared_ptr<const StaticReport> prev_report;
  bool prev_obligated = false;
  // The final artifact's report; its resource digest feeds the QEC
  // stage's fault-tolerance cost estimate.
  std::shared_ptr<const StaticReport> final_report;

  for (int pass = 1; pass <= max_passes; ++pass) {
    cancel::checkpoint("pipeline.analyze");
    PassTrace& trace = result.trace.emplace_back();
    trace.pass = pass;
    std::shared_ptr<const StaticReport> static_report;
    {
      qtrace::TraceSpan span("pipeline.analyze");
      resilience.walk(
          kAnalyze, plan_stage(kAnalyze, rungs.abstract_lints), pass, &trace,
          [&](std::size_t rung) {
            const bool abstract = rungs.abstract_lints && rung == 0;
            static_report = (abstract ? analyzer_ : core_analyzer_)
                                .analyze(generation.source);
          });
    }
    cancel::charge("pipeline.analyze", resilience_.stage_costs.analyze);
    trace.syntactic_ok = static_report->syntactic_ok;
    trace.error_count = static_report->diagnostics.size();
    trace.report = static_report;
    if (pass > 1) {
      // Translation validation of the repair that produced this pass.
      certify_repair(result, trace, prev_report->circuit,
                     static_report->circuit, prev_obligated);
    }

    bool semantic_ok = false;
    if (static_report->syntactic_ok) {
      // Static-only verdict (no reference, or the behavioural rung is
      // gone): semantic mirrors syntactic.
      semantic_ok = true;
      trace.tvd = 0.0;
      if (rungs.behavioral) {
        if (pressed(resilience_.pressure_static_only)) {
          resilience.walk(kVerify, kVerify.rungs, pass, &trace,
                          [](std::size_t) {}, /*pressed=*/true);
          rungs.behavioral = false;
        } else {
          qtrace::TraceSpan span("pipeline.verify");
          BehaviorReport behavior;
          const auto verify = [&](std::size_t) {
            behavior = analyzer_.check_behavior(*static_report, reference);
          };
          if (resilience.walk(kVerify, kVerify.rungs, pass, &trace, verify)) {
            semantic_ok = behavior.matches;
            trace.tvd = behavior.tvd;
          }
        }
      }
    }
    trace.semantic_ok = semantic_ok;
    result.passes_used = pass;

    bool done = semantic_ok || pass == max_passes;
    if (!done) {
      // Feed the error trace back for the next inference pass.
      prev_report = static_report;
      prev_obligated =
          repair_is_preservation_obligated(static_report->diagnostics);
      qtrace::TraceSpan span("pipeline.repair");
      qtrace::Metrics::counter("pipeline.repair_passes");
      cancel::checkpoint("pipeline.repair");
      done = !resilience.walk(
          kRepair, plan_stage(kRepair, rungs.rag && rag_technique), pass,
          &trace, [&](std::size_t rung) {
            generation = codegen_.repair(
                task, generation, static_report->diagnostics,
                /*semantic_failure=*/static_report->syntactic_ok,
                prompt_index, pass, rungs.rag && rung == 0, gold);
          });
    }
    if (done) {
      result.syntactic_ok = trace.syntactic_ok;
      result.semantic_ok = semantic_ok;
      result.generation = std::move(generation);
      if (static_report->circuit.has_value()) {
        result.circuit = std::shared_ptr<const sim::Circuit>(
            static_report, &*static_report->circuit);
      }
      final_report = std::move(static_report);
      break;
    }
  }

  qtrace::Metrics::counter("pipeline.trials");
  if (result.syntactic_ok) qtrace::Metrics::counter("pipeline.syntactic_ok");
  if (result.semantic_ok) qtrace::Metrics::counter("pipeline.semantic_ok");
  qtrace::Metrics::observe("pipeline.passes_used",
                          static_cast<double>(result.passes_used));
  if (rungs.qec && qec_rung_count_ > 0 && result.semantic_ok) {
    qtrace::TraceSpan span("pipeline.qec_plan");
    std::optional<QecPlan> plan;
    if (resilience.walk(
            kQec, std::span(qec_rungs_).first(qec_rung_count_),
            result.passes_used, nullptr, [&](std::size_t rung) {
              failpoint::trip("qec.decode", result.passes_used);
              QecDecoderAgent::Options options = qec_agent_->options();
              options.decoder = qec_decoders_[rung];
              plan = QecDecoderAgent(options).plan_for(
                  *device_, &final_report->resources,
                  caches_.qec_lifetime.get());
            })) {
      result.qec = std::move(plan);
    }
    cancel::charge("pipeline.qec_plan", resilience_.stage_costs.qec);
  }
}

}  // namespace qcgen::agents
