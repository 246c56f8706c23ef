// SERVING: open-loop serving bench over the async request engine.
//
// Drives a serve::Server with open-loop arrival processes (Poisson at a
// low and a high offered rate, two-state bursty, diurnal) over the gold
// template catalog and reports, per workload row: admission-level
// counts, shed rate, structured shed/degradation events, and
// virtual-time latency quantiles (p50/p90/p99/p999) from the admission
// model. All of that is deterministic for a fixed (seed, workload) at
// any --threads value and lives in the "serving" section;
// wall-clock latency quantiles and goodput go under "timing", which the
// validator's determinism compare strips (CI compares --threads 1
// against --threads 8 reports).
//
// --scenario arms per-request fault injection inside the server, so the
// chaos grammar composes with serving (failures surface as structured
// kFailed outcomes, never as lost futures).
//
// Every request also runs under the lifecycle policy (the
// "lifecycle" section): a virtual-time deadline budget with cooperative
// checkpoints (kDeadlineExceeded outcomes, budget-pressure
// pre-degradations) and per-site circuit breakers whose transition
// history is part of the deterministic report.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/suite.hpp"
#include "harness.hpp"
#include "serve/report.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/workload.hpp"

using namespace qcgen;

namespace {

struct WorkloadRow {
  std::string label;
  serve::ArrivalProcess process;
  double rate = 0.0;
  serve::CaseMix mix = serve::CaseMix::kUniform;
  /// Row-specific chaos scenario ("" = whatever --scenario armed).
  std::string scenario;
  /// Row-specific default deadline (0 = the bench-wide default).
  double deadline_units = 0.0;
};

/// Runs one open-loop workload against a fresh server and returns the
/// wall-clock seconds from the first submit to the drained last result
/// (Server construction — its cache and resource handles, oracle prewarm
/// and analyzer kit — is not timed; the knowledge, stores and gold
/// references are process-wide, built by whichever server came first);
/// `reports` (optional) receives the post-drain cache layer reports.
double run_cache_workload(const serve::Server::Options& options,
                          const std::vector<eval::TestCase>& catalog,
                          const std::vector<serve::Arrival>& arrivals,
                          std::vector<serve::CacheLayerReport>* reports) {
  serve::Server server(options, catalog);
  serve::Session session(server, /*session_id=*/1);
  std::vector<std::future<serve::RequestResult>> futures;
  futures.reserve(arrivals.size());
  const auto start = std::chrono::steady_clock::now();
  for (const serve::Arrival& arrival : arrivals) {
    futures.push_back(session.submit(arrival.request_id,
                                     catalog[arrival.case_idx], arrival.vt));
  }
  server.drain();
  for (auto& future : futures) future.get();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (reports != nullptr) *reports = server.cache_reports();
  return wall;
}

/// Median wall seconds of kCacheRepeats fresh-server runs of one
/// workload. Only the first run records into the bench's trace (and
/// fills `reports`), so the deterministic trace summary counts the
/// workload once; the repeats run with tracing detached.
constexpr int kCacheRepeats = 3;
double median_cache_workload(serve::Server::Options options,
                             const std::vector<eval::TestCase>& catalog,
                             const std::vector<serve::Arrival>& arrivals,
                             std::vector<serve::CacheLayerReport>* reports) {
  std::vector<double> walls;
  walls.push_back(run_cache_workload(options, catalog, arrivals, reports));
  options.trace = nullptr;
  const trace::SinkScope untraced(nullptr);
  while (walls.size() < kCacheRepeats) {
    walls.push_back(run_cache_workload(options, catalog, arrivals, nullptr));
  }
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

Json cache_stats_json(const cache::Stats& stats) {
  JsonObject out;
  out["lookups"] = stats.lookups;
  out["hits"] = stats.hits;
  out["misses"] = stats.misses;
  out["inserts"] = stats.inserts;
  out["evictions"] = stats.evictions;
  out["hit_rate"] = stats.hit_rate();
  return Json(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("serving", argc, argv,
                         {.samples = 2, .quick_samples = 1});
  trace::SinkScope trace_scope(harness.trace_sink());

  // The catalog the server prewarms: every third gold case crosses the
  // algorithm tiers without making each row's oracle prewarm dominate.
  const auto full = eval::semantic_suite();
  std::vector<eval::TestCase> catalog;
  const std::size_t stride = harness.quick() ? 6 : 3;
  for (std::size_t i = 0; i < full.size(); i += stride) {
    catalog.push_back(full[i]);
  }

  // Offered load per row scales with --samples; the admission thresholds
  // are tightened below the library defaults so the high-rate rows cross
  // the full ladder (degrade, then shed) even in --quick runs.
  const std::size_t requests_per_row = 30 * harness.samples();
  std::vector<WorkloadRow> rows = {
      {"poisson-low", serve::ArrivalProcess::kPoisson, 4.0,
       serve::CaseMix::kUniform, "", 0.0},
      {"poisson-high", serve::ArrivalProcess::kPoisson, 12.0,
       serve::CaseMix::kZipf, "", 0.0},
      {"bursty", serve::ArrivalProcess::kBursty, 2.0,
       serve::CaseMix::kUniform, "", 0.0},
      {"diurnal", serve::ArrivalProcess::kDiurnal, 6.0,
       serve::CaseMix::kUniform, "", 0.0},
  };
  // Lifecycle stress row: hard-down QEC decoding plus a mostly-down
  // retrieval store under a tight deadline, so the lifecycle
  // section exercises breaker opens, short-circuits and deadline
  // outcomes in every CI run. Skipped when --scenario already arms a
  // bench-wide scenario (the row's own scenario would be ambiguous).
  if (harness.scenario().empty()) {
    rows.push_back({"chaos-lifecycle", serve::ArrivalProcess::kPoisson, 8.0,
                    serve::CaseMix::kUniform,
                    "qec.decode=error(1.0);retrieval.query=error(0.8)",
                    /*deadline_units=*/6.0});
  }

  serve::Server::Options server_options;
  server_options.technique =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  server_options.technique.max_passes = 3;
  server_options.resilience.max_stage_retries = 1;
  agents::QecDecoderAgent::Options qec;
  qec.trials = 200;
  server_options.qec = qec;
  server_options.device = agents::DeviceTopology::grid(5, 5);
  server_options.admission.no_rag_depth = 6;
  server_options.admission.static_only_depth = 12;
  server_options.admission.shed_depth = 20;
  server_options.threads = harness.threads();
  server_options.chaos_scenario = harness.scenario();
  server_options.trace = harness.trace_sink();
  // Request-lifecycle policy: every request carries a
  // virtual-time deadline, and per-site circuit breakers short-circuit
  // persistently failing sites to their degraded paths.
  server_options.default_deadline_units = 12.0;
  server_options.breaker.enabled = true;

  std::printf("SERVING: open-loop arrival processes vs admission ladder "
              "(servers=%zu, depths %zu/%zu/%zu)\n\n",
              server_options.admission.virtual_servers,
              server_options.admission.no_rag_depth,
              server_options.admission.static_only_depth,
              server_options.admission.shed_depth);

  Table table({"workload", "rate/s", "reqs", "full", "no-rag", "static",
               "shed", "ddl-x", "sem %", "v-p50", "v-p99"});
  table.set_title("Admission outcomes and virtual latency per workload");
  JsonArray serving_rows;
  JsonArray lifecycle_rows;
  JsonArray timing_rows;
  std::size_t total_requests = 0;
  for (std::size_t row_index = 0; row_index < rows.size(); ++row_index) {
    const WorkloadRow& row = rows[row_index];
    // Independent seed per row: workload draws and request streams never
    // alias across rows, yet stay fixed for the CI determinism compare.
    serve::Server::Options options = server_options;
    options.seed = harness.seed() + row_index;
    if (!row.scenario.empty()) options.chaos_scenario = row.scenario;
    if (row.deadline_units > 0.0) {
      options.default_deadline_units = row.deadline_units;
    }

    serve::WorkloadOptions workload;
    workload.process = row.process;
    workload.count = requests_per_row;
    workload.rate = row.rate;
    workload.seed = harness.seed() + row_index;
    workload.mix = row.mix;
    const std::vector<serve::Arrival> arrivals =
        serve::generate_arrivals(workload, catalog.size());

    const auto row_start = std::chrono::steady_clock::now();
    serve::Server server(options, catalog);
    serve::Session session(server, /*session_id=*/1);
    std::vector<std::future<serve::RequestResult>> futures;
    futures.reserve(arrivals.size());
    for (const serve::Arrival& arrival : arrivals) {
      futures.push_back(
          session.submit(arrival.request_id, catalog[arrival.case_idx],
                         arrival.vt));
    }
    server.drain();
    std::vector<serve::RequestResult> results;
    results.reserve(futures.size());
    for (auto& future : futures) results.push_back(future.get());
    const double row_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      row_start)
            .count();

    const serve::ServingSummary summary =
        serve::ServingSummary::from(row.label, row.rate, server, results);
    total_requests += summary.requests;
    table.add_row(
        {row.label, format_double(row.rate, 1),
         std::to_string(summary.requests),
         std::to_string(summary.admitted_full),
         std::to_string(summary.admitted_no_rag),
         std::to_string(summary.admitted_static_only),
         std::to_string(summary.shed),
         std::to_string(summary.deadline_exceeded),
         format_double(summary.completed > 0
                           ? 100.0 * static_cast<double>(summary.semantic_ok) /
                                 static_cast<double>(summary.completed)
                           : 0.0,
                       1),
         format_double(summary.virtual_latency.p50, 2),
         format_double(summary.virtual_latency.p99, 2)});
    serving_rows.push_back(summary.to_json());
    lifecycle_rows.push_back(
        serve::LifecycleSummary::from(row.label, options.default_deadline_units,
                                      server, results)
            .to_json());
    Json timing_row =
        serve::serving_timing_json(results, summary.semantic_ok, row_wall);
    timing_row["workload"] = row.label;
    timing_rows.push_back(std::move(timing_row));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Shed requests resolve immediately with a structured "
              "rejection; degraded admissions pre-walk the resilience "
              "ladders (rag->no-rag, behavioral->static-only).\n");

  Json serving;
  serving["rows"] = Json(std::move(serving_rows));
  harness.record_section("serving", std::move(serving));
  Json lifecycle;
  lifecycle["rows"] = Json(std::move(lifecycle_rows));
  harness.record_section("lifecycle", std::move(lifecycle));
  Json timing;
  timing["rows"] = Json(std::move(timing_rows));
  harness.record_timing("serving", std::move(timing));

  // ---- Cache study: the three memoization layers under a uniform vs a
  // Zipf case mix, each run uncached and with unbounded caches, on
  // kCacheRepeats fresh servers per side. The speedup of the median
  // post-construction walls and the live per-layer counters go under
  // "timing" (hits never change results, only latency). QEC
  // planning is per-request (uncached) work, so the study rows skip it
  // to measure the memoized layers themselves; chaos scenarios are
  // mutually exclusive with caching, so --scenario skips the study.
  if (harness.scenario().empty()) {
    const std::size_t cache_requests = 40 * harness.samples();
    struct MixRow {
      std::string label;
      serve::CaseMix mix;
    };
    const std::vector<MixRow> mixes = {
        {"uniform", serve::CaseMix::kUniform},
        {"zipf", serve::CaseMix::kZipf},
    };

    Table cache_table({"mix", "layer", "lookups", "hits", "rate"});
    cache_table.set_title("Cache hit rates (unbounded, shared by sessions)");
    JsonArray cache_timing_rows;
    for (std::size_t mix_index = 0; mix_index < mixes.size(); ++mix_index) {
      const MixRow& mix = mixes[mix_index];
      serve::WorkloadOptions workload;
      workload.process = serve::ArrivalProcess::kPoisson;
      workload.count = cache_requests;
      workload.rate = 6.0;
      workload.seed = harness.seed() + 100 + mix_index;
      workload.mix = mix.mix;
      const std::vector<serve::Arrival> arrivals =
          serve::generate_arrivals(workload, catalog.size());

      serve::Server::Options options = server_options;
      options.seed = harness.seed() + 100 + mix_index;
      options.chaos_scenario.clear();
      options.qec.reset();
      options.device.reset();
      // Admit everything at kFull: shed/degraded requests would make the
      // hit-rate denominators admission-policy artifacts.
      options.admission = serve::AdmissionOptions::unlimited();

      const double wall_uncached =
          median_cache_workload(options, catalog, arrivals, nullptr);
      options.cache.enabled = true;
      std::vector<serve::CacheLayerReport> reports;
      const double wall_cached =
          median_cache_workload(options, catalog, arrivals, &reports);

      JsonArray layer_rows;
      for (const serve::CacheLayerReport& report : reports) {
        Json row = cache_stats_json(report.stats);
        row["layer"] = report.layer;
        cache_table.add_row(
            {mix.label, report.layer, std::to_string(report.stats.lookups),
             std::to_string(report.stats.hits),
             format_double(report.stats.hit_rate(), 3)});
        layer_rows.push_back(std::move(row));
      }
      JsonObject timing_row;
      timing_row["mix"] = mix.label;
      timing_row["wall_uncached_seconds"] = wall_uncached;
      timing_row["wall_cached_seconds"] = wall_cached;
      timing_row["speedup"] =
          wall_cached > 0.0 ? wall_uncached / wall_cached : 0.0;
      timing_row["repeats"] = kCacheRepeats;
      timing_row["layers"] = Json(std::move(layer_rows));
      cache_timing_rows.push_back(Json(std::move(timing_row)));
      // The deterministic trials count covers each workload once per
      // side; the timing repeats are extra wall time, not extra trials.
      total_requests += 2 * arrivals.size();
      std::fflush(stdout);
    }
    std::printf("\n%s\n", cache_table.to_string().c_str());

    Json cache_timing;
    cache_timing["rows"] = Json(std::move(cache_timing_rows));
    harness.record_timing("cache", std::move(cache_timing));
  }

  harness.record("catalog_cases", Json(catalog.size()));
  harness.record("requests_per_row", Json(requests_per_row));
  harness.set_trials(total_requests);
  return harness.finish();
}
