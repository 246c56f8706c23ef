#include "common/trace.hpp"

#include <algorithm>
#include <chrono>

namespace qcgen::trace {

namespace {

thread_local TraceSink* t_sink = nullptr;
thread_local std::uint32_t t_tag = 0;
// Only touched by the real TraceSpan, absent under QCGEN_TRACE=OFF.
[[maybe_unused]] thread_local std::uint16_t t_depth = 0;

[[maybe_unused]] std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void HistogramSummary::observe(double value) noexcept {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
}

void HistogramSummary::merge(const HistogramSummary& other) noexcept {
  if (other.count == 0) return;
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void Summary::merge(const Summary& other) {
  for (const auto& [name, n] : other.span_counts) span_counts[name] += n;
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

Json Summary::to_json() const {
  Json out;
  JsonObject spans;
  for (const auto& [name, n] : span_counts) spans[name] = n;
  out["spans"] = Json(std::move(spans));
  JsonObject counter_obj;
  for (const auto& [name, v] : counters) counter_obj[name] = v;
  out["counters"] = Json(std::move(counter_obj));
  JsonObject hist_obj;
  for (const auto& [name, h] : histograms) {
    Json entry;
    entry["count"] = h.count;
    entry["sum"] = h.sum;
    entry["min"] = h.min;
    entry["max"] = h.max;
    hist_obj[name] = std::move(entry);
  }
  out["histograms"] = Json(std::move(hist_obj));
  return out;
}

TraceSink::TraceSink(bool keep_events, std::size_t max_events)
    : keep_events_(keep_events), max_events_(max_events) {}

void TraceSink::record_span(std::string_view name, std::uint64_t start_ns,
                            std::uint64_t duration_ns,
                            std::uint32_t thread_tag, std::uint16_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key(name);
  ++summary_.span_counts[key];
  stage_ns_[key] += duration_ns;
  if (keep_events_) {
    if (events_.size() < max_events_) {
      events_.push_back(
          SpanEvent{key, start_ns, duration_ns, thread_tag, depth});
    } else {
      ++events_dropped_;
    }
  }
}

void TraceSink::add_counter(std::string_view name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.counters[std::string(name)] += delta;
}

void TraceSink::observe(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.histograms[std::string(name)].observe(value);
}

void TraceSink::merge(const TraceSink& other) {
  // Callers merge finished child sinks into a parent; lock ordering is
  // therefore hierarchical and cannot deadlock.
  std::lock_guard<std::mutex> other_lock(other.mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.merge(other.summary_);
  for (const auto& [name, ns] : other.stage_ns_) stage_ns_[name] += ns;
  events_dropped_ += other.events_dropped_;
  if (keep_events_) {
    for (const SpanEvent& event : other.events_) {
      if (events_.size() < max_events_) {
        events_.push_back(event);
      } else {
        ++events_dropped_;
      }
    }
  }
}

void TraceSink::add_summary(const Summary& summary) {
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.merge(summary);
}

Summary TraceSink::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_;
}

std::vector<SpanEvent> TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t TraceSink::events_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_dropped_;
}

std::map<std::string, double> TraceSink::stage_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, ns] : stage_ns_) {
    out[name] = static_cast<double>(ns) * 1e-9;
  }
  return out;
}

Json TraceSink::summary_json() const { return summary().to_json(); }

Json TraceSink::stage_seconds_json() const {
  JsonObject out;
  for (const auto& [name, seconds] : stage_seconds()) out[name] = seconds;
  return Json(std::move(out));
}

std::string TraceSink::chrome_trace_json() const {
  // Chrome trace-event format: complete ("X") events with microsecond
  // timestamps, one tid per worker tag. Rebased to the earliest event so
  // the viewer's time axis starts near zero.
  std::vector<SpanEvent> snapshot = events();
  std::uint64_t base_ns = snapshot.empty() ? 0 : snapshot.front().start_ns;
  for (const SpanEvent& event : snapshot) {
    base_ns = std::min(base_ns, event.start_ns);
  }
  Json root;
  JsonArray trace_events;
  trace_events.reserve(snapshot.size());
  for (const SpanEvent& event : snapshot) {
    Json entry;
    entry["name"] = event.name;
    entry["ph"] = "X";
    entry["pid"] = 0;
    entry["tid"] = event.thread_tag;
    entry["ts"] = static_cast<double>(event.start_ns - base_ns) * 1e-3;
    entry["dur"] = static_cast<double>(event.duration_ns) * 1e-3;
    Json args;
    args["depth"] = event.depth;
    entry["args"] = std::move(args);
    trace_events.push_back(std::move(entry));
  }
  root["traceEvents"] = Json(std::move(trace_events));
  root["displayTimeUnit"] = "ms";
  root["qcgenDroppedEvents"] = events_dropped();
  return root.dump();
}

TraceSink* current_sink() noexcept { return t_sink; }

SinkScope::SinkScope(TraceSink* sink) noexcept : previous_(t_sink) {
  t_sink = sink;
}

SinkScope::~SinkScope() { t_sink = previous_; }

std::uint32_t set_thread_tag(std::uint32_t tag) noexcept {
  const std::uint32_t previous = t_tag;
  t_tag = tag;
  return previous;
}

#if QCGEN_TRACE_ENABLED

TraceSpan::TraceSpan(std::string_view name) noexcept : sink_(t_sink) {
  if (sink_ == nullptr) return;
  name_ = name;
  start_ns_ = steady_now_ns();
  depth_ = t_depth++;
}

TraceSpan::~TraceSpan() {
  if (sink_ == nullptr) return;
  --t_depth;
  // Recording in the destructor means a span closes (and is counted)
  // even when the scope unwinds through an exception.
  sink_->record_span(name_, start_ns_, steady_now_ns() - start_ns_, t_tag,
                     depth_);
}

void Metrics::counter(std::string_view name, std::int64_t delta) noexcept {
  if (t_sink != nullptr) t_sink->add_counter(name, delta);
}

void Metrics::observe(std::string_view name, double value) noexcept {
  if (t_sink != nullptr) t_sink->observe(name, value);
}

#endif  // QCGEN_TRACE_ENABLED

}  // namespace qcgen::trace
