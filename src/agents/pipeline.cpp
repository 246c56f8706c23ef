#include "agents/pipeline.hpp"

#include <algorithm>
#include <cmath>
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

/// Runs `body` under the resilience policy: retries with seeded,
/// budget-charged backoff; injected delay units count against the stage
/// budget; exhausting either retries or budget returns the failure.
/// Returns nullopt on success. Behaviour-identical to a bare body()
/// call when nothing throws and no delay fires.
std::optional<RunFailure> run_guarded(const char* stage,
                                      const ResilienceOptions& options,
                                      Rng& rng, PipelineResult& result,
                                      const std::function<void()>& body) {
  failpoint::Injector* injector = failpoint::current_injector();
  cancel::DeadlineBudget* deadline = cancel::current_budget();
  double budget_used = 0.0;
  double delay_mark =
      injector != nullptr ? injector->delay_units_charged() : 0.0;
  for (int attempt = 0;; ++attempt) {
    std::optional<RunFailure> failure;
    try {
      body();
    } catch (const cancel::CancelledError&) {
      // A cancellation/deadline observed mid-stage is not a stage
      // failure: never retried, never degraded — it must reach the
      // serving layer as the structured lifecycle outcome.
      throw;
    } catch (const std::exception& error) {
      failure = read_run_failure(error, stage);
    }
    if (injector != nullptr) {
      const double now = injector->delay_units_charged();
      budget_used += now - delay_mark;
      result.budget_consumed += now - delay_mark;
      // Injected delays count against the request's deadline too.
      if (deadline != nullptr) deadline->charge(now - delay_mark);
      delay_mark = now;
    }
    const bool over_budget = options.stage_budget_units > 0.0 &&
                             budget_used > options.stage_budget_units;
    if (!failure.has_value()) {
      if (over_budget) {
        return RunFailure{
            .stage = stage,
            .what = std::string(stage) + ": stage budget exhausted by delays"};
      }
      return std::nullopt;
    }
    if (over_budget || attempt >= options.max_stage_retries) return failure;
    // Deterministic exponential backoff with seeded jitter, charged in
    // budget units rather than slept (chaos runs stay bit-reproducible).
    const double backoff = options.backoff_base_units *
                           std::ldexp(1.0, attempt) *
                           (1.0 + 0.5 * rng.uniform());
    budget_used += backoff;
    result.budget_consumed += backoff;
    if (deadline != nullptr) deadline->charge(backoff);
    ++result.stage_retries;
    qtrace::Metrics::counter("resilience.retries");
    qtrace::Metrics::observe("resilience.backoff_units", backoff);
    if (options.stage_budget_units > 0.0 &&
        budget_used > options.stage_budget_units) {
      return failure;
    }
  }
}

void note_degradation(PipelineResult& result, PassTrace* pass_trace,
                      DegradationEvent event) {
  qtrace::Metrics::counter("resilience.degradations");
  if (pass_trace != nullptr) pass_trace->degradations.push_back(event);
  result.degradations.push_back(std::move(event));
}

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

/// One stage invocation's degradation ladder, current rung first.
struct MultiAgentPipeline::Ladder {
  const char* stage = "";
  int pass = 0;                   ///< DegradationEvent::pass
  PassTrace* trace = nullptr;     ///< also gets the events (null: none)
  std::vector<std::string_view> rungs{};  ///< the runnable rungs
  /// Terminal give-up step once the runnable rungs are exhausted; with no
  /// floor (empty) the stage raises PipelineStageError instead.
  std::string_view floor_from{}, floor_to{};
  bool retrieval_only = false;  ///< rung steps help retrieval faults only
  const char* checkpoint = nullptr;   ///< checked before every rung's run
  const char* charge_site = nullptr;  ///< charged after the top rung's run
  double charge_units = 0.0;
};

/// Runs the current rung under the resilience policy and steps down one
/// rung per failure, recording each step as a DegradationEvent.
/// `pressed` is a budget-pressure pre-walk: the top rung is stepped past
/// without running. Returns the rung that succeeded, or the rung count
/// when the stage fell to its floor; throws PipelineStageError when a
/// failure has nowhere to step or the policy does not degrade.
std::size_t MultiAgentPipeline::walk(
    PipelineResult& result, const Ladder& ladder,
    const std::function<void(std::size_t)>& run, bool pressed) {
  const std::size_t rungs = ladder.rungs.size();
  for (std::size_t rung = 0; rung < rungs; ++rung) {
    std::optional<RunFailure> failure;
    if (rung == 0 && pressed) {
      failure = RunFailure{.stage = ladder.stage, .what = "budget-pressure"};
    } else {
      if (ladder.checkpoint != nullptr) cancel::checkpoint(ladder.checkpoint);
      failure = run_guarded(ladder.stage, resilience_, resilience_rng_,
                            result, [&] { run(rung); });
      if (rung == 0 && ladder.charge_site != nullptr) {
        cancel::charge(ladder.charge_site, ladder.charge_units);
      }
    }
    if (!failure.has_value()) return rung;
    const bool next =
        rung + 1 < rungs &&
        (!ladder.retrieval_only || failure->site.empty() ||
         failure->site == "retrieval.query");
    if (!resilience_.degrade || (!next && ladder.floor_to.empty())) {
      throw PipelineStageError(ladder.stage, failure->site,
                               result.stage_retries, failure->what);
    }
    note_degradation(
        result, ladder.trace,
        {ladder.pass, ladder.stage,
         std::string(next ? ladder.rungs[rung] : ladder.floor_from),
         std::string(next ? ladder.rungs[rung + 1] : ladder.floor_to),
         failure->what, failure->site});
    if (!next) break;
  }
  return rungs;
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
  // The QEC ladder: configured decoder -> union-find -> lookup (distance 3
  // only; the lookup decoder does not scale past it). Empty = no plan.
  std::vector<qec::DecoderKind> decoders;
  if (rungs.qec && qec_agent_.has_value() && device_.has_value()) {
    const QecDecoderAgent::Options& configured = qec_agent_->options();
    decoders = {configured.decoder};
    for (const qec::DecoderKind kind :
         {qec::DecoderKind::kUnionFind, qec::DecoderKind::kLookup}) {
      if (kind != configured.decoder && (kind != qec::DecoderKind::kLookup ||
                                         configured.target_distance == 3)) {
        decoders.push_back(kind);
      }
    }
  }
  // Tight deadline budget: pre-walk a ladder before spending any of the
  // remainder on its top rung.
  const auto pressed = [&](double threshold) {
    return resilience_.degrade && cancel::budget_pressure() >= threshold;
  };
  // The caller may have taken the rag rung away already, in which
  // case no-rag is the only rung left. On a technique without retrieval
  // the flag is still handed through: it is part of the generation key.
  const auto rag_rungs = [&]() -> std::vector<std::string_view> {
    if (rungs.rag && rag_technique) return {"rag", "no-rag"};
    return {"no-rag"};
  };

  llm::GenerationResult generation;
  cancel::checkpoint("pipeline.generate");
  {
    qtrace::TraceSpan span("pipeline.generate");
    const Ladder ladder{.stage = "generate",
                        .rungs = rag_rungs(),
                        .retrieval_only = true};
    const bool pressure =
        rungs.rag && rag_technique && pressed(resilience_.pressure_no_rag);
    walk(
        result, ladder,
        [&](std::size_t rung) {
          generation = codegen_.generate(task, prompt_index,
                                         rungs.rag && rung == 0, gold);
        },
        pressure);
    if (pressure) rungs.rag = false;
  }
  cancel::charge("pipeline.generate", resilience_.stage_costs.generate);
  const int max_passes = codegen_.config().max_passes;

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
      Ladder ladder{.stage = "analyze", .pass = pass, .trace = &trace,
                    .rungs = {"abstract-lints", "core-lints"}};
      if (!rungs.abstract_lints) ladder.rungs.erase(ladder.rungs.begin());
      walk(result, ladder, [&](std::size_t rung) {
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
        const Ladder ladder{.stage = "verify",
                            .pass = pass,
                            .trace = &trace,
                            .rungs = {"behavioral"},
                            .floor_from = "behavioral",
                            .floor_to = "static-only",
                            .charge_site = "pipeline.verify",
                            .charge_units = resilience_.stage_costs.verify};
        if (pressed(resilience_.pressure_static_only)) {
          walk(result, ladder, nullptr, /*pressed=*/true);
          rungs.behavioral = false;
        } else {
          qtrace::TraceSpan span("pipeline.verify");
          cancel::checkpoint("pipeline.verify");
          BehaviorReport behavior;
          if (walk(result, ladder, [&](std::size_t) {
                behavior = analyzer_.check_behavior(*static_report, reference);
              }) == 0) {
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
      // Terminal rung: repair unavailable — keep the best pass so far
      // instead of failing the trial.
      const Ladder ladder{.stage = "repair",
                          .pass = pass,
                          .trace = &trace,
                          .rungs = rag_rungs(),
                          .floor_from = "multi-pass",
                          .floor_to = "abort",
                          .retrieval_only = true,
                          .charge_site = "pipeline.repair",
                          .charge_units = resilience_.stage_costs.repair};
      done = walk(result, ladder, [&](std::size_t rung) {
               generation = codegen_.repair(
                   task, generation, static_report->diagnostics,
                   /*semantic_failure=*/static_report->syntactic_ok,
                   prompt_index, pass, rungs.rag && rung == 0, gold);
             }) == ladder.rungs.size();
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
  if (!decoders.empty() && result.semantic_ok) {
    qtrace::TraceSpan span("pipeline.qec_plan");
    Ladder ladder{.stage = "qec",
                  .pass = result.passes_used,
                  .floor_to = "none",
                  .checkpoint = "pipeline.qec_plan"};
    for (const qec::DecoderKind kind : decoders) {
      ladder.rungs.push_back(qec::decoder_kind_name(kind));
    }
    ladder.floor_from = ladder.rungs.back();
    std::optional<QecPlan> plan;
    if (walk(result, ladder, [&](std::size_t rung) {
          failpoint::trip("qec.decode", result.passes_used);
          QecDecoderAgent::Options options = qec_agent_->options();
          options.decoder = decoders[rung];
          plan = QecDecoderAgent(options).plan_for(
              *device_, &final_report->resources, caches_.qec_lifetime.get());
        }) < ladder.rungs.size()) {
      result.qec = std::move(plan);
    }
    cancel::charge("pipeline.qec_plan", resilience_.stage_costs.qec);
  }
}

}  // namespace qcgen::agents
