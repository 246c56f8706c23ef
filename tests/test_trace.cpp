// Unit tests for the tracing/metrics layer (common/trace.hpp): RAII span
// semantics (nesting, exception unwinding), counter/histogram
// aggregation, sink merging (the determinism contract), thread-local
// binding, and the Chrome trace-event export.

#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"

namespace qcgen::trace {
namespace {

#if QCGEN_TRACE_ENABLED
// Tests in this block exercise the TraceSpan/Metrics instrumentation
// macro-gated by QCGEN_TRACE; under -DQCGEN_TRACE=OFF they compile to
// no-ops by design, so the expectations only hold when enabled.

TEST(TraceSpan, RecordsIntoInstalledSink) {
  TraceSink sink;
  {
    SinkScope scope(&sink);
    TraceSpan span("stage.a");
    TraceSpan again("stage.a");
  }
  const Summary summary = sink.summary();
  ASSERT_EQ(summary.span_counts.size(), 1u);
  EXPECT_EQ(summary.span_counts.at("stage.a"), 2u);
}

TEST(TraceSpan, NoSinkIsANoOp) {
  // With no sink installed a span must not crash or record anywhere.
  TraceSpan span("orphan");
  Metrics::counter("orphan.counter");
  Metrics::observe("orphan.histogram", 1.0);
  SUCCEED();
}

TEST(TraceSpan, NestingDepthIsCaptured) {
  TraceSink sink(/*keep_events=*/true);
  {
    SinkScope scope(&sink);
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      TraceSpan innermost("innermost");
    }
  }
  // Spans record on close, so the deepest closes first.
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "innermost");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
}

TEST(TraceSpan, RecordsWhenScopeUnwindsThroughException) {
  TraceSink sink;
  SinkScope scope(&sink);
  try {
    TraceSpan span("doomed");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(sink.summary().span_counts.at("doomed"), 1u);
  // Depth bookkeeping must also have unwound: a fresh span sits at 0.
  {
    TraceSpan after("after");
  }
  TraceSink probe(/*keep_events=*/true);
  {
    SinkScope inner(&probe);
    TraceSpan check("check");
  }
  EXPECT_EQ(probe.events().at(0).depth, 0u);
}

TEST(Metrics, CountersAndHistogramsAggregate) {
  TraceSink sink;
  {
    SinkScope scope(&sink);
    Metrics::counter("hits");
    Metrics::counter("hits", 4);
    Metrics::counter("misses", -2);
    Metrics::observe("tvd", 0.25);
    Metrics::observe("tvd", 0.75);
  }
  const Summary summary = sink.summary();
  EXPECT_EQ(summary.counters.at("hits"), 5);
  EXPECT_EQ(summary.counters.at("misses"), -2);
  const HistogramSummary& tvd = summary.histograms.at("tvd");
  EXPECT_EQ(tvd.count, 2u);
  EXPECT_DOUBLE_EQ(tvd.sum, 1.0);
  EXPECT_DOUBLE_EQ(tvd.min, 0.25);
  EXPECT_DOUBLE_EQ(tvd.max, 0.75);
}

TEST(TraceSink, CountersAggregateAcrossPoolWorkers) {
  // One shared sink, many workers: recording is thread-safe, so the
  // totals must be exact regardless of interleaving.
  TraceSink sink;
  constexpr std::size_t kTasks = 256;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t) {
    SinkScope scope(&sink);
    TraceSpan span("task");
    Metrics::counter("work", 2);
  });
  const Summary summary = sink.summary();
  EXPECT_EQ(summary.span_counts.at("task"), kTasks);
  EXPECT_EQ(summary.counters.at("work"),
            static_cast<std::int64_t>(2 * kTasks));
}

TEST(TraceSink, StageSecondsTracksSpanDurations) {
  TraceSink sink;
  {
    SinkScope scope(&sink);
    TraceSpan span("timed");
  }
  const auto stages = sink.stage_seconds();
  ASSERT_EQ(stages.count("timed"), 1u);
  EXPECT_GE(stages.at("timed"), 0.0);
}

#endif  // QCGEN_TRACE_ENABLED

TEST(SinkScope, RestoresPreviousBinding) {
  TraceSink outer_sink;
  TraceSink inner_sink;
  SinkScope outer(&outer_sink);
  EXPECT_EQ(current_sink(), &outer_sink);
  {
    SinkScope inner(&inner_sink);
    EXPECT_EQ(current_sink(), &inner_sink);
    {
      SinkScope off(nullptr);  // optional-sink call sites pass null
      EXPECT_EQ(current_sink(), nullptr);
      Metrics::counter("dropped");
    }
    EXPECT_EQ(current_sink(), &inner_sink);
  }
  EXPECT_EQ(current_sink(), &outer_sink);
  EXPECT_TRUE(inner_sink.summary().counters.empty());
}

TEST(TraceSink, MergePreservesTotalsAndOrderIndependentData) {
  // Direct sink API (always live, even under -DQCGEN_TRACE=OFF).
  TraceSink a;
  TraceSink b;
  a.record_span("stage", 0, 10, 0, 0);
  a.add_counter("n", 3);
  a.observe("h", 1.0);
  b.record_span("stage", 5, 20, 1, 0);
  b.add_counter("n", 4);
  b.observe("h", -1.0);
  TraceSink merged;
  merged.merge(a);
  merged.merge(b);
  const Summary summary = merged.summary();
  EXPECT_EQ(summary.span_counts.at("stage"), 2u);
  EXPECT_EQ(summary.counters.at("n"), 7);
  EXPECT_EQ(summary.histograms.at("h").count, 2u);
  EXPECT_DOUBLE_EQ(summary.histograms.at("h").min, -1.0);
  EXPECT_DOUBLE_EQ(summary.histograms.at("h").max, 1.0);
  // Same children, same order -> bit-identical summary (the determinism
  // contract run_trial_matrix relies on).
  TraceSink merged_again;
  merged_again.merge(a);
  merged_again.merge(b);
  EXPECT_EQ(merged.summary(), merged_again.summary());
  EXPECT_EQ(merged.summary_json().dump(), merged_again.summary_json().dump());
}

TEST(TraceSink, SummaryJsonPrintsExactIntegers) {
  TraceSink sink;
  // A counter beyond double's 2^53 mantissa must round-trip exactly.
  sink.add_counter("big", static_cast<std::int64_t>(9007199254740993LL));
  const std::string json = sink.summary_json().dump();
  EXPECT_NE(json.find("\"big\":9007199254740993"), std::string::npos);
}

TEST(TraceSink, EventCapDropsButStillCounts) {
  TraceSink sink(/*keep_events=*/true, /*max_events=*/2);
  for (int i = 0; i < 5; ++i) {
    sink.record_span("s", static_cast<std::uint64_t>(i), 1, 0, 0);
  }
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events_dropped(), 3u);
  // The deterministic summary is unaffected by the event cap.
  EXPECT_EQ(sink.summary().span_counts.at("s"), 5u);
}

TEST(TraceSink, ChromeExportIsWellFormed) {
  TraceSink sink(/*keep_events=*/true);
  sink.record_span("export.me", 1000, 500, /*thread_tag=*/7, /*depth=*/0);
  const std::string chrome = sink.chrome_trace_json();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"export.me\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(chrome.find("\"qcgenDroppedEvents\":0"), std::string::npos);
}

TEST(Summary, EmptyAndEquality) {
  Summary a;
  EXPECT_TRUE(a.empty());
  a.counters["x"] = 1;
  EXPECT_FALSE(a.empty());
  Summary b;
  b.counters["x"] = 1;
  EXPECT_EQ(a, b);
  b.counters["x"] = 2;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace qcgen::trace
