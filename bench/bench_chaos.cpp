// CHAOS: fault-injection sweep over the resilient pipeline.
//
// Arms the failpoint framework with an increasing per-site fault rate
// (llm.generate, retrieval.query, analyzer.simulate, qec.decode) and
// measures how semantic accuracy and the completed-trial rate degrade.
// The containment contract under test: every (case x sample) matrix
// completes at every rate — even error(1.0) — with lost trials recorded
// as structured trial_failures and ladder steps as degradations, never
// as a propagated exception. The whole sweep is deterministic for a
// fixed (seed, samples, scenario) at any --threads value.
//
// With --scenario the sweep is replaced by a single run of the given
// scenario (the CI determinism check uses this with a fixed seed) and
// the serving lifecycle sweep below is skipped.
//
// The second half is a serving-layer lifecycle sweep (fault rate x
// deadline, circuit breakers on): the same fault grammar armed inside a
// serve::Server — faulting only qec.decode and retrieval.query, the
// sites with degraded rungs to short-circuit to — measuring deadline
// outcomes, breaker opens and the budget-consumption tail. Two acceptance gates make the bench exit
// nonzero when the robustness contract regresses: under a 100%
// qec.decode fault rate the site's breaker must open, and with
// deadlines armed the virtual budget-consumption p999 must stay within
// a fixed overshoot bound of the deadline.
//
// The trial_failures and degradations sections carry the last (harshest)
// sweep row's; the lifecycle sweep records the lifecycle section.

#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/runner.hpp"
#include "harness.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"

using namespace qcgen;

namespace {

std::string sweep_scenario(double rate) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "llm.generate=error(%.3f);retrieval.query=error(%.3f);"
                "analyzer.simulate=error(%.3f);qec.decode=error(%.3f)",
                rate, rate, rate, rate);
  return buffer;
}

/// The lifecycle sweep faults only the sites with a degraded rung to
/// fall back to: a hard-down llm.generate would fail-fast every request
/// before qec.decode/retrieval.query are ever exercised, starving their
/// breakers of evidence — the opposite of what the sweep measures.
std::string lifecycle_scenario(double rate) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer,
                "qec.decode=error(%.3f);retrieval.query=error(%.3f)", rate,
                rate);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("chaos", argc, argv,
                         {.samples = 2, .quick_samples = 1});
  trace::SinkScope trace_scope(harness.trace_sink());

  // Every third case keeps the sweep affordable while still crossing
  // the algorithm tiers; --quick thins it further.
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> suite;
  const std::size_t stride = harness.quick() ? 6 : 3;
  for (std::size_t i = 0; i < full.size(); i += stride) {
    suite.push_back(full[i]);
  }

  // RAG + multi-pass exercises the retrieval and repair ladders; the QEC
  // stage on a grid device exercises the decoder ladder.
  auto technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  technique.max_passes = 3;

  eval::RunnerOptions options;
  options.samples_per_case = harness.samples();
  options.seed = harness.seed();
  options.threads = harness.threads();
  options.trace = harness.trace_sink();
  options.resilience.max_stage_retries = 1;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 200;
  options.qec = qec;
  options.device = agents::DeviceTopology::grid(5, 5);

  std::vector<std::string> scenarios;
  if (!harness.scenario().empty()) {
    scenarios.push_back(harness.scenario());
  } else {
    for (double rate : {0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0}) {
      scenarios.push_back(sweep_scenario(rate));
    }
  }

  std::printf("CHAOS: injected fault rate vs semantic accuracy and "
              "completed-trial rate (retries=1, ladders on)\n\n");

  Table table({"scenario", "semantic %", "completed %", "failures",
               "degradations", "retries"});
  table.set_title("Fault-injection sweep over the resilient pipeline");
  JsonArray json_rows;
  std::size_t total_trials = 0;
  eval::AccuracyReport report;  // the last row's is recorded below
  for (const std::string& scenario : scenarios) {
    eval::RunnerOptions row_options = options;
    row_options.chaos_scenario = scenario;
    report = eval::evaluate_technique(technique, suite, row_options);
    total_trials += suite.size() * harness.samples();
    // trial_failures carry their retry counts; completed trials are not
    // walked here, so the column reports retries spent on lost trials.
    int retries = 0;
    for (const auto& failure : report.trial_failures) {
      retries += failure.retries;
    }
    // Shorten the sweep label: the per-site clauses all share one rate.
    const std::string label =
        scenario.size() > 28 ? scenario.substr(0, 25) + "..." : scenario;
    table.add_row({label, format_double(100 * report.semantic_rate, 1),
                   format_double(100 * report.completed_rate, 1),
                   std::to_string(report.trial_failures.size()),
                   std::to_string(report.degradations.size()),
                   std::to_string(retries)});
    Json record;
    record["scenario"] = scenario;
    record["semantic_rate"] = report.semantic_rate;
    record["completed_rate"] = report.completed_rate;
    record["trial_failures"] = report.trial_failures.size();
    record["degradations"] = report.degradations.size();
    json_rows.push_back(std::move(record));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Containment check: every row completed its full trial "
              "matrix; lost trials are recorded, not thrown.\n");

  harness.record("rows", Json(std::move(json_rows)));
  harness.record("cases", Json(suite.size()));
  harness.record_section("trial_failures",
                         eval::trial_failures_to_json(report.trial_failures));
  harness.record_section("degradations",
                         eval::degradations_to_json(report.degradations));

  // ---- Serving lifecycle sweep: fault rate x deadline with per-site
  // circuit breakers. Skipped under --scenario (which pins the batch
  // sweep above to a single run for the determinism compare).
  int exit_code = 0;
  if (harness.scenario().empty()) {
    const std::size_t requests = 20 * harness.samples();
    // Overshoot bound for the deadline gate: a checkpoint observes
    // exhaustion only after the charge that crossed the line, so the
    // tail can overrun by at most one stage's worth of charges; 8 extra
    // units is far above any single charge yet far below an unbounded
    // run's consumption.
    const double overshoot_slack = 8.0;
    struct SweepPoint {
      double rate;
      double deadline;
    };
    const std::vector<SweepPoint> sweep = {
        {0.5, 0.0}, {0.5, 8.0}, {1.0, 0.0}, {1.0, 8.0}};

    std::printf("\nLifecycle sweep: fault rate x deadline, breakers on "
                "(threshold=3, cooldown=4vt)\n\n");
    Table lifecycle_table({"row", "reqs", "done", "fail", "ddl-x", "s-circ",
                           "opened", "bc-p999"});
    lifecycle_table.set_title(
        "Deadline outcomes and breaker activity under sustained faults");
    JsonArray lifecycle_rows;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      serve::Server::Options server_options;
      server_options.technique = technique;
      server_options.resilience.max_stage_retries = 1;
      server_options.qec = qec;
      server_options.device = agents::DeviceTopology::grid(5, 5);
      server_options.threads = harness.threads();
      server_options.seed = harness.seed() + 500 + i;
      server_options.chaos_scenario = lifecycle_scenario(point.rate);
      server_options.breaker.enabled = true;
      server_options.default_deadline_units = point.deadline;
      server_options.trace = harness.trace_sink();

      serve::WorkloadOptions workload;
      workload.process = serve::ArrivalProcess::kPoisson;
      workload.count = requests;
      workload.rate = 6.0;
      workload.seed = harness.seed() + 500 + i;
      const std::vector<serve::Arrival> arrivals =
          serve::generate_arrivals(workload, suite.size());

      serve::Server server(server_options, suite);
      serve::Session session(server, /*session_id=*/1);
      std::vector<std::future<serve::RequestResult>> futures;
      futures.reserve(arrivals.size());
      for (const serve::Arrival& arrival : arrivals) {
        futures.push_back(session.submit(arrival.request_id,
                                         suite[arrival.case_idx], arrival.vt));
      }
      server.drain();
      std::vector<serve::RequestResult> results;
      results.reserve(futures.size());
      for (auto& future : futures) results.push_back(future.get());
      total_trials += results.size();

      char label[64];
      std::snprintf(label, sizeof label, "rate%.1f-ddl%.0f", point.rate,
                    point.deadline);
      const serve::ServingSummary summary =
          serve::ServingSummary::from(label, workload.rate, server, results);
      const serve::LifecycleSummary lifecycle = serve::LifecycleSummary::from(
          label, point.deadline, server, results);
      std::size_t qec_opens = 0;
      for (const serve::BreakerTransition& transition :
           lifecycle.transitions) {
        if (transition.site == "qec.decode" &&
            transition.to == serve::BreakerState::kOpen) {
          ++qec_opens;
        }
      }
      lifecycle_table.add_row(
          {label, std::to_string(summary.requests),
           std::to_string(summary.completed), std::to_string(summary.failed),
           std::to_string(summary.deadline_exceeded),
           std::to_string(lifecycle.breaker_short_circuits),
           std::to_string(qec_opens),
           format_double(lifecycle.budget_consumed.p999, 2)});
      lifecycle_rows.push_back(lifecycle.to_json());

      // Gate 1: a hard-down qec.decode must trip its breaker.
      if (point.rate >= 1.0 && qec_opens == 0) {
        std::printf("GATE FAILED: qec.decode breaker never opened at fault "
                    "rate %.1f\n",
                    point.rate);
        exit_code = 1;
      }
      // Gate 2: armed deadlines bound the virtual consumption tail.
      if (point.deadline > 0.0 &&
          lifecycle.budget_consumed.p999 > point.deadline + overshoot_slack) {
        std::printf("GATE FAILED: budget p999 %.2f exceeds deadline %.1f + "
                    "slack %.1f\n",
                    lifecycle.budget_consumed.p999, point.deadline,
                    overshoot_slack);
        exit_code = 1;
      }
      std::fflush(stdout);
    }
    std::printf("%s\n", lifecycle_table.to_string().c_str());
    std::printf("Open breakers short-circuit to degraded paths (skip QEC, "
                "no-rag, static-only) instead of burning deadline budget on "
                "persistently failing sites.\n");

    Json lifecycle_section;
    lifecycle_section["rows"] = Json(std::move(lifecycle_rows));
    harness.record_section("lifecycle", std::move(lifecycle_section));
  }

  harness.set_trials(total_trials);
  return harness.finish(exit_code);
}
