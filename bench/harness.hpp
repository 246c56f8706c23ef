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
// Report schema (schema_version 8, the only version; every section
// below other than the first five keys is optional and appears only when
// the bench records it):
//   {
//     "schema_version": 8,
//     "bench": "<name>",
//     "config":  {"samples": N, "seed": S, "threads": T, "quick": B,
//                 "scenario": "..."},                     // --scenario only
//     "timing":  {"wall_seconds": W, "trials": N, "trials_per_second": R,
//                 "stages": {...}},                       // --trace only
//     "results": { ... bench-specific ... },
//     "trace":   {"spans": {...}, "counters": {...},
//                 "histograms": {...}},                   // --trace only
//     "trial_failures": [...],   // contained trial failures
//     "degradations":   [...],   // degradation-ladder steps
//     "resources":      [...],   // static resource rows
//     "serving":        {...},   // serving rows + events
//     "lifecycle":      {...}    // deadlines + breakers
//   }
// Everything outside "timing" is deterministic for a fixed (samples,
// seed) at any --threads value — including the "trace" summary, whose
// per-trial sinks merge in trial index order; wall-clock stage totals
// live under "timing", and raw timestamps only in the Chrome export. scripts/validate_bench_json.py checks the schema
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

  /// Records one optional top-level section of the report: one of
  /// "trial_failures", "degradations" (arrays shaped by
  /// eval::trial_failures_to_json / eval::degradations_to_json),
  /// "resources" (per-workload static resource rows), "serving" and
  /// "lifecycle" (objects with a "rows" array of serve::ServingSummary /
  /// serve::LifecycleSummary rows). scripts/validate_bench_json.py checks
  /// each section that is present; a section never recorded is absent.
  void record_section(const std::string& name, Json value);

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
  JsonObject sections_;
  std::size_t trials_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace qcgen::bench
