#pragma once
// Serving-report builders: latency quantiles and the "serving"
// section of a bench report.
//
// The split mirrors the harness contract: everything in a serving row
// (counts, admission events, *virtual*-time latency quantiles from the
// admission model) is deterministic for a fixed (seed, workload, config)
// at any --threads value and lives in the report body; wall-clock
// latency quantiles and goodput are timing-class and belong under the
// report's "timing" subtree, which the determinism compare strips.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace qcgen::serve {

/// Nearest-rank quantiles of a latency sample (zeroes when empty).
struct LatencyQuantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  double max = 0.0;

  static LatencyQuantiles of(std::vector<double> values);
  Json to_json() const;
};

/// Deterministic summary of one serving run (one workload row).
struct ServingSummary {
  std::string mix;     ///< arrival-process label
  double rate = 0.0;   ///< offered arrivals per virtual second
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t semantic_ok = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t cancelled = 0;
  std::size_t admitted_full = 0;
  std::size_t admitted_no_rag = 0;
  std::size_t admitted_static_only = 0;
  /// Virtual queue latency (finish - arrival) over admitted requests.
  LatencyQuantiles virtual_latency;
  std::vector<ShedEvent> shed_events;
  std::vector<AdmissionDegradation> degradation_events;

  /// Collects counts, events (sorted by request id) and virtual-latency
  /// quantiles from a drained server plus its collected results.
  static ServingSummary from(const std::string& mix, double rate,
                             const Server& server,
                             const std::vector<RequestResult>& results);

  /// Schema-5 serving row (deterministic; see
  /// scripts/validate_bench_json.py check_serving).
  Json to_json() const;
};

/// Wall-clock companion row for the report's "timing" subtree: latency
/// quantiles over the measured submit->completion times of the executed
/// (non-shed) requests plus goodput (semantically-correct completions per
/// wall second).
Json serving_timing_json(const std::vector<RequestResult>& results,
                         std::size_t semantic_ok, double wall_seconds);

/// Deterministic request-lifecycle summary of one serving row: deadline
/// outcomes, budget-pressure pre-degradations, breaker activity and the
/// authoritative per-site breaker transition history (the
/// "lifecycle" section; see validate_bench_json.py check_lifecycle).
struct LifecycleSummary {
  std::string mix;
  double deadline_units = 0.0;  ///< default deadline armed for the row
  std::size_t requests = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t cancelled = 0;
  /// Degradation-ladder steps taken with reason "budget-pressure"
  /// (pre-emptive, before the hard deadline), summed over requests.
  std::size_t budget_pressure_degradations = 0;
  std::size_t breaker_short_circuits = 0;
  std::size_t breaker_probes = 0;
  /// Virtual budget units consumed, over admitted (executed) requests.
  LatencyQuantiles budget_consumed;
  std::vector<BreakerTransition> transitions;

  static LifecycleSummary from(const std::string& mix, double deadline_units,
                               const Server& server,
                               const std::vector<RequestResult>& results);
  Json to_json() const;
};

}  // namespace qcgen::serve
