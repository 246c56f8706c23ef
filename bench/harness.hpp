#pragma once
// Shared bench harness: one flag parser, one timing/throughput measurer
// and one BenchReport -> JSON writer for every bench_* binary.
//
// Common flags (all optional):
//   --samples N     work multiplier (samples/case for eval benches,
//                   Monte-Carlo trials for decoder benches)
//   --quick         reduced-sample smoke run (bench-specific default)
//   --seed S        experiment seed (bench-specific default, usually 2025)
//   --threads N     trial-scheduler workers; 0 = all hardware threads;
//                   values above 1024 exit 2
//   --json [PATH]   write the machine-readable report; PATH defaults to
//                   BENCH_<name>.json in the working directory
//   --trace [PATH]  enable stage tracing; the report gains a "trace"
//                   section and the raw Chrome trace-event stream is
//                   written to PATH (default TRACE_<name>.json)
//   --scenario STR  fault-injection scenario (failpoint::Scenario
//                   grammar); malformed specs exit 2 before running
//   --benchmark_*   passed through (google-benchmark based benches)
//
// Report schema (schema_version 2; validators also accept 1; a bench
// that records chaos sections bumps itself to 3, one that records a
// resources section to 4, one that records a serving section to 5, and
// one that records a lifecycle section to 7; no bench emits 6, whose
// "cache" section was retired):
//   {
//     "schema_version": 2,
//     "bench": "<name>",
//     "config":  {"samples": N, "seed": S, "threads": T, "quick": B,
//                 "scenario": "..."},                     // --scenario only
//     "timing":  {"wall_seconds": W, "trials": N, "trials_per_second": R,
//                 "stages": {...}, "scheduler": {...}},   // --trace only
//     "trace":   {"spans": {...}, "counters": {...},
//                 "histograms": {...}},                   // --trace only
//     "trial_failures": [...],   // schema 3: contained trial failures
//     "degradations":   [...],   // schema 3: degradation-ladder steps
//     "resources":      [...],   // schema 4: static resource rows
//     "serving":        {...},   // schema 5: serving rows + events
//     "lifecycle":      {...},   // schema 7: deadlines + breakers
//     "results": { ... bench-specific ... }
//   }
// Everything outside "timing" is deterministic for a fixed (samples,
// seed) at any --threads value — including the "trace" summary, whose
// per-trial sinks merge in trial index order; wall-clock stage totals
// and scheduler balance live under "timing", and raw timestamps only in
// the Chrome export. scripts/validate_bench_json.py checks the schema
// and compares reports modulo "timing".

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/trace.hpp"

namespace qcgen::bench {

class Harness {
 public:
  struct Defaults {
    std::size_t samples = 3;        ///< full-run work multiplier
    std::size_t quick_samples = 1;  ///< value --quick maps samples to
    std::uint64_t seed = 2025;
  };

  /// Parses argv (exits 2 on unknown flags, 0 on --help) and starts the
  /// wall clock. `name` becomes the report's "bench" field and the
  /// default artifact name BENCH_<name>.json.
  Harness(std::string name, int argc, char** argv, Defaults defaults);

  const std::string& name() const noexcept { return name_; }
  std::size_t samples() const noexcept { return samples_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t threads() const noexcept { return threads_; }
  bool quick() const noexcept { return quick_; }
  bool json_requested() const noexcept { return json_requested_; }
  bool trace_requested() const noexcept { return sink_ != nullptr; }
  /// Validated --scenario spec ("" when not given); feed to
  /// RunnerOptions::chaos_scenario.
  const std::string& scenario() const noexcept { return scenario_; }

  /// Aggregate trace sink, or nullptr when --trace was not given. Benches
  /// install it on the main thread (trace::SinkScope) so directly-invoked
  /// stages record into it, and pass it to RunnerOptions::trace so the
  /// trial scheduler merges per-trial sinks into it deterministically.
  trace::TraceSink* trace_sink() noexcept { return sink_.get(); }
  /// Unrecognised --benchmark_* flags, for benchmark::Initialize.
  const std::vector<std::string>& passthrough() const noexcept {
    return passthrough_;
  }

  /// Records one entry of the report's "results" object.
  void record(const std::string& key, Json value);

  /// Records one entry of the report's "timing" object — for wall-clock-
  /// shaped data (measured latency quantiles, goodput) that must be
  /// stripped by the determinism compare along with the harness timings.
  void record_timing(const std::string& key, Json value);

  /// Records the report's chaos sections (arrays shaped by
  /// eval::trial_failures_to_json / eval::degradations_to_json) and
  /// bumps the report to schema_version 3. Calling either is enough:
  /// the other section defaults to an empty array.
  void record_trial_failures(Json failures);
  void record_degradations(Json degradations);

  /// Records the report's "resources" section (array of per-workload
  /// static resource rows; see scripts/validate_bench_json.py for the
  /// required keys) and bumps the report to schema_version 4. Schema 4
  /// implies the schema-3 chaos sections, which default to empty arrays.
  void record_resources(Json resources);

  /// Records the report's "serving" section (object with a "rows" array
  /// of serve::ServingSummary::to_json rows; see
  /// scripts/validate_bench_json.py check_serving) and bumps the report
  /// to schema_version 5. Schema 5 implies the schema-3/4 sections,
  /// which default to empty arrays.
  void record_serving(Json serving);

  /// Records the report's "lifecycle" section (object with a "rows"
  /// array of serve::LifecycleSummary::to_json rows — deadline outcomes,
  /// budget-pressure degradations, breaker transitions; see
  /// scripts/validate_bench_json.py check_lifecycle) and bumps the
  /// report to schema_version 7. Schema 7 implies the schema-3/4/5
  /// sections; the serving section defaults to an empty rows object if
  /// never recorded.
  void record_lifecycle(Json lifecycle);

  /// Total trials executed, for the trials/sec throughput figure.
  void set_trials(std::size_t trials) noexcept { trials_ = trials; }

  /// Stops the clock, prints the throughput summary line and writes the
  /// JSON artifact when --json was given. Returns the process exit code
  /// (1 when the artifact could not be written, else `exit_code`).
  int finish(int exit_code = 0);

 private:
  std::string name_;
  std::size_t samples_ = 3;
  std::uint64_t seed_ = 2025;
  std::size_t threads_ = 0;
  bool quick_ = false;
  bool json_requested_ = false;
  std::string json_path_;
  std::string trace_path_;
  std::string scenario_;
  std::unique_ptr<trace::TraceSink> sink_;
  std::vector<std::string> passthrough_;
  JsonObject results_;
  JsonObject extra_timing_;
  bool chaos_sections_ = false;
  bool resources_section_ = false;
  bool serving_section_ = false;
  bool lifecycle_section_ = false;
  Json trial_failures_{JsonArray{}};
  Json degradations_{JsonArray{}};
  Json resources_{JsonArray{}};
  Json serving_;
  Json lifecycle_;
  std::size_t trials_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace qcgen::bench
