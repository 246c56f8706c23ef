#pragma once
// Structured tracing + metrics for the multi-agent pipeline.
//
// Three pieces work together:
//
//  * TraceSpan — an RAII scope (nestable, steady-clock timed, tagged with
//    the current worker thread) that records into the thread's installed
//    TraceSink. With no sink installed a span is a thread-local pointer
//    read and a branch, so always-on instrumentation stays off the
//    profile; building with -DQCGEN_TRACE=OFF compiles it away entirely.
//  * Metrics — named counters (integer deltas) and histograms (double
//    observations), routed to the same thread-local sink.
//  * TraceSink — the aggregation point. It separates the *deterministic*
//    summary (span counts per stage, counter totals, histogram
//    count/sum/min/max) from wall-clock data (per-stage nanosecond
//    totals, scheduler balance, raw events for the Chrome trace-event
//    export). Per-trial sinks merged in trial index order therefore give
//    bit-identical summaries at any thread count, while the timestamped
//    view is still available for chrome://tracing / Perfetto.
//
// The binding is thread-local: eval/parallel.cpp installs one sink per
// trial on whichever worker runs it (SinkScope), and the bench harness
// installs its aggregate sink on the main thread, so library code never
// threads a sink argument through its APIs.

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

#ifndef QCGEN_TRACE_ENABLED
#define QCGEN_TRACE_ENABLED 1
#endif

namespace qcgen::trace {

/// Deterministic aggregate of one histogram metric. Merging per-trial
/// sinks in trial index order keeps the double sum bit-stable.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double value) noexcept;
  void merge(const HistogramSummary& other) noexcept;
  friend bool operator==(const HistogramSummary&,
                         const HistogramSummary&) = default;
};

/// The deterministic part of a trace: no wall-clock values, only counts
/// and values derived from the (seeded, schedule-independent) work itself.
struct Summary {
  std::map<std::string, std::uint64_t> span_counts;
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramSummary> histograms;

  void merge(const Summary& other);
  bool empty() const noexcept {
    return span_counts.empty() && counters.empty() && histograms.empty();
  }
  /// {"spans": {...}, "counters": {...}, "histograms": {...}} with exact
  /// integer printing; bit-identical for equal summaries.
  Json to_json() const;
  friend bool operator==(const Summary&, const Summary&) = default;
};

/// One finished span, kept only when the sink retains events for the
/// Chrome export.
struct SpanEvent {
  std::string name;
  std::uint64_t start_ns = 0;     ///< steady-clock, process-relative
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_tag = 0;   ///< pool worker index + 1; main = 0
  std::uint16_t depth = 0;        ///< nesting depth at entry
};

/// Scheduler balance stats harvested from a ThreadPool run. Inherently
/// wall-clock-shaped (steals depend on timing), so these are reported
/// next to timing data, never inside the deterministic summary.
struct SchedulerStats {
  std::uint64_t workers = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_stolen = 0;

  void merge(const SchedulerStats& other) noexcept;
};

/// Thread-safe trace aggregation point.
class TraceSink {
 public:
  /// `keep_events` retains raw spans (bounded by `max_events`) for the
  /// Chrome export; summary aggregation happens either way.
  explicit TraceSink(bool keep_events = false,
                     std::size_t max_events = 1u << 20);

  bool keep_events() const noexcept { return keep_events_; }

  // -- recording (thread-safe) ------------------------------------------
  void record_span(std::string_view name, std::uint64_t start_ns,
                   std::uint64_t duration_ns, std::uint32_t thread_tag,
                   std::uint16_t depth);
  void add_counter(std::string_view name, std::int64_t delta);
  void observe(std::string_view name, double value);
  void add_scheduler(const SchedulerStats& stats);

  /// Folds a finished child sink in. Call in a deterministic order
  /// (e.g. trial index order) to keep the merged summary bit-stable.
  void merge(const TraceSink& other);
  /// Folds in only the deterministic summary of work done elsewhere —
  /// no wall time, no events. A memo hit uses it to replay what its
  /// compute recorded.
  void add_summary(const Summary& summary);

  // -- snapshots --------------------------------------------------------
  Summary summary() const;
  SchedulerStats scheduler() const;
  std::vector<SpanEvent> events() const;
  std::uint64_t events_dropped() const;
  /// Per-stage wall-clock totals in seconds (timing data, not part of
  /// the deterministic summary).
  std::map<std::string, double> stage_seconds() const;

  // -- serialisation ----------------------------------------------------
  Json summary_json() const;        ///< deterministic "trace" section
  Json stage_seconds_json() const;  ///< for the report's "timing" subtree
  Json scheduler_json() const;      ///< for the report's "timing" subtree
  /// Full Chrome trace-event JSON (load in chrome://tracing / Perfetto).
  std::string chrome_trace_json() const;

 private:
  mutable std::mutex mutex_;
  Summary summary_;
  std::map<std::string, std::uint64_t> stage_ns_;
  SchedulerStats scheduler_;
  bool keep_events_ = false;
  std::size_t max_events_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::vector<SpanEvent> events_;
};

// -- thread-local binding -----------------------------------------------

/// The sink spans/metrics on this thread record into (nullptr = off).
TraceSink* current_sink() noexcept;

/// RAII: installs `sink` as this thread's current sink and restores the
/// previous binding on destruction. A nullptr sink disables tracing for
/// the scope, so call sites can pass an optional sink unconditionally.
class SinkScope {
 public:
  explicit SinkScope(TraceSink* sink) noexcept;
  ~SinkScope();
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  TraceSink* previous_;
};

/// Tags spans recorded by this thread (ThreadPool workers use their
/// worker index + 1; the main thread defaults to 0). Returns the
/// previous tag so callers can restore it.
std::uint32_t set_thread_tag(std::uint32_t tag) noexcept;

#if QCGEN_TRACE_ENABLED

/// RAII span. The name must outlive the span (instrumentation sites use
/// string literals or stable pass ids, so no copy is taken until the
/// span is recorded).
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceSink* sink_;  ///< nullptr when tracing is off for this thread
  std::string_view name_;
  std::uint64_t start_ns_ = 0;
  std::uint16_t depth_ = 0;
};

/// Named-metric entry points; no-ops when no sink is installed.
struct Metrics {
  static void counter(std::string_view name, std::int64_t delta = 1) noexcept;
  static void observe(std::string_view name, double value) noexcept;
};

#else  // QCGEN_TRACE_ENABLED == 0: instrumentation compiles to nothing.

class TraceSpan {
 public:
  explicit TraceSpan(std::string_view) noexcept {}
};

struct Metrics {
  static void counter(std::string_view, std::int64_t = 1) noexcept {}
  static void observe(std::string_view, double) noexcept {}
};

#endif  // QCGEN_TRACE_ENABLED

}  // namespace qcgen::trace
