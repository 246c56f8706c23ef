#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common/failpoint.hpp"

namespace qcgen::bench {

namespace {

/// Largest --threads value accepted. The trial pool starts one OS thread
/// per worker, so a larger value is rejected before any pool exists.
constexpr unsigned long long kMaxThreads = 1024;

[[noreturn]] void usage(const std::string& name, int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: bench_%s [--samples N] [--quick] [--seed S] [--threads N]\n"
      "                [--json [PATH]] [--trace [PATH]] [--scenario STR]\n"
      "  --samples N    work multiplier (samples per case / MC trials)\n"
      "  --quick        reduced-sample smoke run\n"
      "  --seed S       experiment seed\n"
      "  --threads N    trial-scheduler workers, at most %llu\n"
      "                 (0 = all hardware threads)\n"
      "  --json [PATH]  write machine-readable report (default "
      "BENCH_%s.json)\n"
      "  --trace [PATH] enable stage tracing; writes Chrome trace events\n"
      "                 (default TRACE_%s.json) and adds a deterministic\n"
      "                 \"trace\" summary to the --json report\n"
      "  --scenario STR fault-injection scenario, e.g.\n"
      "                 'llm.generate=error(0.1);qec.decode=error(1.0)'\n",
      name.c_str(), kMaxThreads, name.c_str(), name.c_str());
  std::exit(code);
}

/// Required-operand fetch: a missing next argument and a flag-like next
/// argument both fail fast (so `--samples --json` cannot silently eat
/// the following flag as its value).
const char* required_value(const std::string& name, const char* flag,
                           const char* value) {
  if (value == nullptr || value[0] == '-') {
    std::fprintf(stderr, "bench_%s: missing value for %s\n", name.c_str(),
                 flag);
    std::exit(2);
  }
  return value;
}

std::uint64_t parse_u64(const std::string& name, const char* flag,
                        const char* value) {
  value = required_value(name, flag, value);
  // Digits only: std::stoull alone would accept leading whitespace and
  // signs ("-3" wraps around to 2^64-3).
  const std::string text(value);
  const bool all_digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (all_digits) {
    try {
      return static_cast<std::uint64_t>(std::stoull(text));
    } catch (const std::out_of_range&) {
      // falls through to the shared diagnostic
    }
  }
  std::fprintf(stderr, "bench_%s: bad value for %s: '%s'\n", name.c_str(),
               flag, value);
  std::exit(2);
}

/// Writes `text` and a newline to `path`. False, after a diagnostic, when
/// the file cannot be opened or the write fails.
bool write_file(const std::string& name, const std::string& path,
                const std::string& text) {
  std::ofstream out(path);
  if (out) {
    out << text << "\n";
    out.close();
  }
  if (!out) {
    std::fprintf(stderr, "bench_%s: cannot write %s\n", name.c_str(),
                 path.c_str());
  }
  return static_cast<bool>(out);
}

}  // namespace

Harness::Harness(std::string name, int argc, char** argv, Defaults defaults)
    : name_(std::move(name)),
      samples_(defaults.samples),
      seed_(defaults.seed),
      start_(std::chrono::steady_clock::now()) {
  bool samples_overridden = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      usage(name_, 0);
    } else if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--samples") {
      samples_ = static_cast<std::size_t>(parse_u64(name_, "--samples", next));
      samples_overridden = true;
      ++i;
    } else if (arg == "--seed") {
      seed_ = parse_u64(name_, "--seed", next);
      ++i;
    } else if (arg == "--threads") {
      const std::uint64_t threads = parse_u64(name_, "--threads", next);
      if (threads > kMaxThreads) {
        std::fprintf(stderr, "bench_%s: --threads must be <= %llu, got %s\n",
                     name_.c_str(), kMaxThreads, next);
        std::exit(2);
      }
      threads_ = static_cast<std::size_t>(threads);
      ++i;
    } else if (arg == "--json") {
      json_requested_ = true;
      // Optional path operand; anything flag-like starts the next option.
      if (next != nullptr && next[0] != '-') {
        json_path_ = next;
        ++i;
      }
    } else if (arg == "--trace") {
      sink_ = std::make_unique<trace::TraceSink>(/*keep_events=*/true);
      if (next != nullptr && next[0] != '-') {
        trace_path_ = next;
        ++i;
      }
    } else if (arg == "--scenario") {
      scenario_ = required_value(name_, "--scenario", next);
      ++i;
      std::string error;
      if (!failpoint::Scenario::try_parse(scenario_, &error).has_value()) {
        std::fprintf(stderr, "bench_%s: bad --scenario: %s\n", name_.c_str(),
                     error.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--benchmark_", 0) == 0) {
      passthrough_.push_back(arg);
    } else {
      std::fprintf(stderr, "bench_%s: unknown argument '%s'\n", name_.c_str(),
                   arg.c_str());
      usage(name_, 2);
    }
  }
  if (quick_ && !samples_overridden) samples_ = defaults.quick_samples;
  if (samples_ == 0) {
    std::fprintf(stderr, "bench_%s: --samples must be >= 1\n", name_.c_str());
    std::exit(2);
  }
  if (json_requested_ && json_path_.empty()) {
    json_path_ = "BENCH_" + name_ + ".json";
  }
  if (sink_ != nullptr && trace_path_.empty()) {
    trace_path_ = "TRACE_" + name_ + ".json";
  }
}

void Harness::record(const std::string& key, Json value) {
  results_[key] = std::move(value);
}

void Harness::record_timing(const std::string& key, Json value) {
  extra_timing_[key] = std::move(value);
}

void Harness::record_section(const std::string& name, Json value) {
  sections_[name] = std::move(value);
}

int Harness::finish(int exit_code) {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  if (trials_ > 0) {
    std::printf("[bench_%s] %zu trials in %.2fs (%.1f trials/s, threads=%zu"
                "%s)\n",
                name_.c_str(), trials_, wall,
                wall > 0.0 ? static_cast<double>(trials_) / wall : 0.0,
                threads_, threads_ == 0 ? "=auto" : "");
  } else {
    std::printf("[bench_%s] completed in %.2fs\n", name_.c_str(), wall);
  }

  if (json_requested_) {
    Json report(sections_);
    report["schema_version"] = 8;
    report["bench"] = name_;
    JsonObject config;
    config["samples"] = samples_;
    // Exact integer: a double here silently corrupts seeds >= 2^53.
    config["seed"] = seed_;
    config["threads"] = threads_;
    config["quick"] = quick_;
    if (!scenario_.empty()) config["scenario"] = scenario_;
    report["config"] = Json(std::move(config));
    JsonObject timing = extra_timing_;
    timing["wall_seconds"] = wall;
    timing["trials"] = trials_;
    timing["trials_per_second"] =
        wall > 0.0 ? static_cast<double>(trials_) / wall : 0.0;
    if (sink_ != nullptr) {
      // Wall-clock-shaped trace data rides with "timing" so the
      // validator's determinism compare strips it with the rest.
      timing["stages"] = sink_->stage_seconds_json();
      report["trace"] = sink_->summary_json();
    }
    report["timing"] = Json(std::move(timing));
    report["results"] = Json(results_);
    if (!write_file(name_, json_path_, report.dump(2))) return 1;
    std::printf("[bench_%s] wrote %s\n", name_.c_str(), json_path_.c_str());
  }

  if (sink_ != nullptr) {
    const trace::Summary summary = sink_->summary();
    std::uint64_t spans = 0;
    for (const auto& [name, count] : summary.span_counts) spans += count;
    if (!write_file(name_, trace_path_, sink_->chrome_trace_json())) {
      return 1;
    }
    std::printf("[bench_%s] traced %llu spans across %zu stages; wrote %s\n",
                name_.c_str(), static_cast<unsigned long long>(spans),
                summary.span_counts.size(), trace_path_.c_str());
  }
  return exit_code;
}

}  // namespace qcgen::bench
