// Repository benchmark program for the qcgen libraries.
//
//   qcgen_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads are the serving traffic the repository documents in
// bench/bench_serving.cpp and EXPERIMENTS.md (SERVING and CACHE): the
// RAG technique with up to three passes, the catalog of every third gold
// case, one retry per stage, a 12-unit virtual deadline and per-site
// circuit breakers on every request, and
//   * poisson-low: the bench_serving "poisson-low" row — Poisson arrivals
//     at 4 requests per virtual second, uniform case mix, QEC planning on
//     a 5x5 grid — with the admission ladder at the library's default
//     thresholds (no-rag at backlog 8, static-only at 16, shed at 32 over
//     4 virtual servers). The admission model runs near its capacity, so
//     about a third of the requests are admitted at a degraded rung.
//     bench_serving tightens the thresholds to 6/12/20 so that its short
//     rows cross the whole ladder; over the ~20k requests of a run that
//     sheds a request in about two runs of five (simulated over 200 arrival
//     seeds), where the defaults shed none in 1000;
//   * cache-zipf: the CACHE study's Zipf row — Poisson at 6 requests per
//     virtual second, Zipf case mix, every request admitted in full, no
//     QEC stage, the generation/retrieval/analysis caches unbounded.
// poisson-low runs the caches too, bounded at one entry per shard, so
// about two lookups in three miss and most requests run retrieval,
// generation, analysis and repair; cache-zipf is the workload on which
// the caches hit (more than four lookups in five).
//
// Admission, deadlines and breakers consume only the virtual arrival
// instants, exactly as in bench_serving, so the ladder walks as it does
// there. The benchmark also plays the schedule against the wall clock,
// kPace virtual seconds per wall second: poisson-low offers 400 and
// cache-zipf 600 requests/s to a server with two workers. On a 4-vCPU
// x86 VM that is half the rate at which cache-zipf starts to build a
// backlog in some runs (at 1200/s its p99 exceeded 70 ms in four runs of
// six), although a request's own work is only a few tenths of a
// millisecond of CPU: the per-request circuit-breaker decision re-reads
// every earlier request's report under one lock, so the serving layer
// saturates well before the workers do (with breakers off, cache-zipf's
// p50 at 1200/s drops from about 0.44 to 0.1 ms). Like bench_serving,
// which builds a server per row, each round of the run builds a fresh
// Server for its ~0.6 s window of the schedule.
//
// Set-up is Server construction (technique resources and BM25 indexes,
// caches, reference-oracle prewarm), timed many times across the run;
// the median is reported.
//
// --trace 0 measures what a user sees, alternating two phases in rounds
// of about one second so both sample the same spells of host speed:
//   * eval: closed-loop batch evaluation (eval::evaluate_technique on one
//     worker thread) of the workload's technique, cycling over a few
//     batch seeds; trials per second and semantic accuracy;
//   * serve: a paced open loop — each request is submitted when its
//     arrival falls due, whether or not earlier ones finished — with
//     latency measured from the due time to completion; p50 and p75 over
//     every served request.
// --trace 1 alternates a per-layer walk with the same paced serving: the
// walk takes the workload's requests through each layer in turn (llm
// retrieval and generation, qasm parse / lint / lowering, sim, transpile,
// qec planning, the agents pipeline) with spans around each call, made
// from this file; serving gives the serve and cache layers.
//
// Outputs are checked: every request must complete (a shed, a missed
// deadline or a failure counts as failed), eval batches must repeat
// exactly per batch seed, accuracy may not fall below floors set under
// the accuracy the code measures, and a sample of served programs is
// re-judged against the gold references by an independent analyzer. The
// last stdout line is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics"; diagnostics go to stderr.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "agents/codegen_agent.hpp"
#include "agents/pipeline.hpp"
#include "agents/qec_agent.hpp"
#include "agents/semantic_agent.hpp"
#include "agents/technique_resources.hpp"
#include "agents/topology.hpp"
#include "eval/judge.hpp"
#include "eval/runner.hpp"
#include "eval/suite.hpp"
#include "llm/tasks.hpp"
#include "qasm/analysis/resources.hpp"
#include "qasm/analyzer.hpp"
#include "qasm/builder.hpp"
#include "qasm/parser.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/statevector.hpp"
#include "transpile/transpiler.hpp"

using namespace qcgen;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Lowest acceptable accuracy, in percent, of a set of judged programs.
struct Floor {
  double syntactic;
  double semantic;
};

struct WorkloadSpec {
  const char* name;
  serve::CaseMix mix;
  double rate;                 ///< offered requests per virtual second
  bool ladder;                 ///< default thresholds, else unlimited
  bool qec;                    ///< QEC planning stage on every request
  std::size_t cache_capacity;  ///< per-shard cache entries; 0 = unbounded
  Floor served;                ///< requests served at full admission
};

/// Virtual seconds of the arrival schedule played per wall second.
constexpr double kPace = 100.0;
/// Samples per case in one eval batch.
constexpr std::size_t kEvalSamples = 8;
/// The accuracy floors sit a few points under the lowest rates measured
/// over 20 seeds of 3-second runs (eval: syntactic 90.9%, semantic 41.1%;
/// served poisson-low 88.6% / 36.4%, cache-zipf 94.0% / 71.7%). Programs
/// judged below them got worse, however fast they were made.
constexpr Floor kEvalFloor = {85.0, 37.0};

std::vector<WorkloadSpec> workloads() {
  return {
      {"poisson-low", serve::CaseMix::kUniform, 4.0, true, true, 1,
       {84.0, 33.0}},
      {"cache-zipf", serve::CaseMix::kZipf, 6.0, false, false, 0,
       {89.0, 66.0}},
  };
}

agents::TechniqueConfig technique() {
  auto config =
      agents::TechniqueConfig::with_rag(llm::ModelProfile::kStarCoder3B);
  config.max_passes = 3;
  return config;
}

agents::QecDecoderAgent::Options qec_options() {
  agents::QecDecoderAgent::Options options;
  options.trials = 200;
  return options;
}

/// Linear-interpolated quantile (q in [0, 1]), as numpy's default.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Operation counts and the correctness verdict of one run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "check failed: %s\n", why.c_str());
    correct = false;
  }
};

/// Checks pooled accuracy percentages against `floor`.
void check_accuracy(const char* what, double syntactic_pct,
                    double semantic_pct, const Floor& floor, Tally& tally) {
  std::fprintf(stderr, "%s: syntactic %.2f%% semantic %.2f%%\n", what,
               syntactic_pct, semantic_pct);
  if (syntactic_pct < floor.syntactic || semantic_pct < floor.semantic) {
    tally.fail(std::string(what) + " accuracy below its floor");
  }
}

/// Every third gold case, as bench_serving serves.
std::vector<eval::TestCase> make_catalog() {
  const auto suite = eval::semantic_suite();
  std::vector<eval::TestCase> catalog;
  for (std::size_t i = 0; i < suite.size(); i += 3) {
    catalog.push_back(suite[i]);
  }
  return catalog;
}

serve::Server::Options server_options(const WorkloadSpec& spec,
                                      std::uint64_t seed) {
  serve::Server::Options options;
  options.technique = technique();
  options.seed = seed;
  options.threads = 2;
  options.resilience.max_stage_retries = 1;
  options.default_deadline_units = 12.0;
  options.breaker.enabled = true;
  if (!spec.ladder) options.admission = serve::AdmissionOptions::unlimited();
  options.cache.enabled = true;
  options.cache.capacity = spec.cache_capacity;
  if (spec.qec) {
    options.qec = qec_options();
    options.device = agents::DeviceTopology::grid(5, 5);
  }
  return options;
}

/// The CPUs this process may use, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread, and the threads it creates from now on,
/// to `cpus`.
void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (!cpus.empty()) sched_setaffinity(0, sizeof set, &set);
}

/// Times one Server construction; the server is handed to `keep` when
/// given, else destroyed after the clock stops.
double time_set_up(const serve::Server::Options& options,
                   const std::vector<eval::TestCase>& catalog,
                   std::unique_ptr<serve::Server>* keep = nullptr) {
  const auto start = Clock::now();
  auto server = std::make_unique<serve::Server>(options, catalog);
  const double seconds = seconds_since(start);
  if (keep != nullptr) *keep = std::move(server);
  return seconds;
}

/// Closed-loop batch evaluation: whole batches (every catalog case,
/// kEvalSamples samples each, one worker thread) back to back, cycling
/// over kBatchSeeds seeds so a run averages over several batch contents.
/// Each pass over the seeds runs on the next of `cpus`: a CPU can be slow
/// for seconds while the others are not, and this way every batch seed is
/// timed on each of them.
class EvalLoop {
 public:
  static constexpr std::size_t kBatchSeeds = 8;

  EvalLoop(const WorkloadSpec& spec, const std::vector<eval::TestCase>& catalog,
           std::uint64_t seed, std::vector<int> cpus, Tally& tally)
      : spec_(spec),
        catalog_(catalog),
        seed_(seed),
        cpus_(std::move(cpus)),
        tally_(tally) {}

  /// Runs whole batches until `budget` seconds have passed.
  void run(double budget) {
    const auto start = Clock::now();
    do {
      const std::size_t slot = batches_ % kBatchSeeds;
      if (!cpus_.empty()) {
        pin({cpus_[batches_ / kBatchSeeds % cpus_.size()]});
      }
      eval::RunnerOptions options;
      options.samples_per_case = kEvalSamples;
      options.seed = serve::request_seed(seed_, slot);
      options.threads = 1;
      if (spec_.qec) {
        options.qec = qec_options();
        options.device = agents::DeviceTopology::grid(5, 5);
      }
      const auto batch_start = Clock::now();
      const eval::AccuracyReport report =
          eval::evaluate_technique(technique(), catalog_, options);
      seconds_[slot].push_back(seconds_since(batch_start));
      ++batches_;
      tally_.attempted += catalog_.size() * kEvalSamples;
      tally_.failed += report.trial_failures.size();
      if (!report.trial_failures.empty()) tally_.fail("eval trial failures");
      const std::pair<double, double> rates{report.syntactic_rate,
                                            report.semantic_rate};
      if (!rates_[slot].has_value()) rates_[slot] = rates;
      if (rates != *rates_[slot]) {
        tally_.fail("eval batches differ for one batch seed");
      }
    } while (seconds_since(start) < budget);
  }

  /// Trials per second of one pass over every batch seed, each batch
  /// timed by the 10th percentile of its repeats: the rate the program
  /// sustains when the host is not in a slow spell.
  double trials_per_s() const {
    double seconds = 0.0;
    std::size_t slots = 0;
    for (const std::vector<double>& times : seconds_) {
      if (times.empty()) continue;
      seconds += quantile(times, 0.1);
      ++slots;
    }
    std::fprintf(stderr, "eval: %zu batches over %zu batch seeds\n", batches_,
                 slots);
    return static_cast<double>(slots * catalog_.size() * kEvalSamples) /
           seconds;
  }

  /// Semantic accuracy in percent, pooled over the batch seeds run, after
  /// checking the pooled rates against the floors.
  double semantic_pct() {
    double syntactic = 0.0;
    double semantic = 0.0;
    std::size_t slots = 0;
    for (const auto& rates : rates_) {
      if (!rates.has_value()) continue;
      syntactic += rates->first;
      semantic += rates->second;
      ++slots;
    }
    const double scale = slots > 0 ? 100.0 / static_cast<double>(slots) : 0.0;
    check_accuracy("eval", scale * syntactic, scale * semantic, kEvalFloor,
                   tally_);
    return scale * semantic;
  }

 private:
  const WorkloadSpec& spec_;
  const std::vector<eval::TestCase>& catalog_;
  std::uint64_t seed_;
  std::vector<int> cpus_;
  Tally& tally_;
  std::optional<std::pair<double, double>> rates_[kBatchSeeds];
  std::vector<double> seconds_[kBatchSeeds];  ///< batch times per seed slot
  std::size_t batches_ = 0;
};

/// Paced open-loop client. The arrival schedule is played in windows,
/// each against a fresh Server whose virtual clock starts at the
/// window's start, as bench_serving gives each row a server of its own.
/// Results are harvested in submission order on the pacing thread itself,
/// in the slack before each due time, keeping only the figures and a
/// sparse correctness sample.
class OpenLoop {
 public:
  OpenLoop(const WorkloadSpec& spec, const std::vector<eval::TestCase>& catalog,
           std::uint64_t seed, double total_seconds, Tally& tally)
      : spec_(spec), catalog_(catalog), tally_(tally) {
    serve::WorkloadOptions workload;
    workload.process = serve::ArrivalProcess::kPoisson;
    workload.mix = spec.mix;
    workload.rate = spec.rate;
    workload.count =
        static_cast<std::size_t>(spec.rate * kPace * total_seconds * 1.5) + 64;
    workload.seed = seed;
    arrivals_ = serve::generate_arrivals(workload, catalog_.size());
    late_ms_.reserve(arrivals_.size());
    latency_ms_.reserve(arrivals_.size());
    submit_us_.reserve(arrivals_.size());
  }

  /// Plays the next `seconds` of wall time of the arrival schedule
  /// against `server`, then drains it.
  void run(serve::Server& server, double seconds) {
    const double window_vt = schedule_vt_;
    const double window_end = schedule_vt_ + kPace * seconds;
    const auto window_start = Clock::now();
    for (; next_ < arrivals_.size() && arrivals_[next_].vt < window_end;
         ++next_) {
      const serve::Arrival& arrival = arrivals_[next_];
      const auto due =
          window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 (arrival.vt - window_vt) / kPace));
      // Harvest or spin until the due time, never sleep: a sleeping
      // thread's wake-up lag (large on a virtual machine, where an idle
      // CPU is halted) would otherwise count against the server.
      while (Clock::now() < due) {
        harvest_one();
      }
      serve::Request request;
      request.id = arrival.request_id;
      request.test_case = catalog_[arrival.case_idx];
      request.arrival_vt = arrival.vt - window_vt;
      const auto submit_start = Clock::now();
      pending_.emplace_back(next_, server.submit(std::move(request)));
      const auto submit_end = Clock::now();
      late_ms_.push_back(
          std::chrono::duration<double, std::milli>(submit_start - due)
              .count());
      submit_us_.push_back(
          std::chrono::duration<double, std::micro>(submit_end - submit_start)
              .count());
    }
    schedule_vt_ = window_end;
    server.drain();
    while (harvest_one()) {
    }
    for (const serve::CacheLayerReport& report : server.cache_reports()) {
      cache_lookups_ += static_cast<double>(report.stats.lookups);
      cache_hits_ += static_cast<double>(report.stats.hits);
    }
  }

  /// Share of cache lookups that hit, over every layer and window.
  double cache_hit_pct() const {
    return cache_lookups_ > 0.0 ? 100.0 * cache_hits_ / cache_lookups_ : 0.0;
  }

  /// Checks the outcome counts, the sampled results and the accuracy of
  /// the requests served at full admission.
  void finish() {
    tally_.attempted += next_;
    tally_.failed += failed_;
    if (failed_ > 0) tally_.fail("requests shed, failed or past deadline");
    if (latency_ms_.size() + failed_ != next_) tally_.fail("lost requests");
    if (latency_ms_.size() < 1000) tally_.fail("too few requests served");
    check_sampled();
    if (full_ > 0) {
      check_accuracy("served at full admission",
                     100.0 * static_cast<double>(full_syntactic_) /
                         static_cast<double>(full_),
                     100.0 * static_cast<double>(full_semantic_) /
                         static_cast<double>(full_),
                     spec_.served, tally_);
    }
    std::fprintf(stderr,
                 "serve: %zu sent at %.0f/s, %zu at full admission; latency "
                 "ms p50 %.4f p75 %.4f p90 %.4f p99 %.4f max %.3f; late ms "
                 "p99 %.3f; submit us p99 %.1f\n",
                 next_, spec_.rate * kPace, full_, latency_ms(0.5),
                 latency_ms(0.75), latency_ms(0.9), latency_ms(0.99),
                 latency_ms(1.0), quantile(late_ms_, 0.99),
                 quantile(submit_us_, 0.99));
  }

  /// Latency percentile `q` over every served request, from due time to
  /// completion.
  double latency_ms(double q) const { return quantile(latency_ms_, q); }
  /// Submit time - due time: how late the load generator ran.
  const std::vector<double>& late_ms() const { return late_ms_; }
  /// Caller-side cost of Server::submit (admission + enqueue).
  const std::vector<double>& submit_us() const { return submit_us_; }

 private:
  struct Sampled {
    std::size_t case_idx;
    std::string source;
    bool syntactic_ok;
    bool semantic_ok;
    bool has_qec;
  };

  /// Takes the oldest outstanding result if it is ready.
  bool harvest_one() {
    if (pending_.empty() ||
        pending_.front().second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return false;
    }
    const std::size_t index = pending_.front().first;
    const serve::RequestResult result = pending_.front().second.get();
    pending_.pop_front();
    if (result.outcome != serve::RequestOutcome::kCompleted) {
      ++failed_;
      std::fprintf(stderr, "request %llu: %s at %s (%s)\n",
                   static_cast<unsigned long long>(result.id),
                   std::string(serve::request_outcome_name(result.outcome))
                       .c_str(),
                   result.failure_site.c_str(), result.failure_what.c_str());
      return true;
    }
    latency_ms_.push_back(late_ms_[index] + 1e3 * result.wall_latency_seconds);
    // Static-only admissions skip the behavioural judge, so their
    // verdicts are not comparable with the reference.
    if (result.level == serve::AdmissionLevel::kStaticOnly) return true;
    if (result.level == serve::AdmissionLevel::kFull) {
      ++full_;
      full_syntactic_ += result.pipeline.syntactic_ok ? 1 : 0;
      full_semantic_ += result.pipeline.semantic_ok ? 1 : 0;
    }
    if (index % 8 == 0) {
      sampled_.push_back({arrivals_[index].case_idx,
                          result.pipeline.generation.source,
                          result.pipeline.syntactic_ok,
                          result.pipeline.semantic_ok,
                          result.pipeline.qec.has_value()});
    }
    return true;
  }

  /// Re-judges sampled served programs with an independent analyzer and
  /// reference oracle; the served verdicts must agree.
  void check_sampled() {
    eval::ReferenceOracle oracle;
    oracle.prewarm(catalog_);
    const agents::SemanticAnalyzerAgent analyzer;
    if (sampled_.empty()) tally_.fail("no served request sampled");
    for (const Sampled& s : sampled_) {
      const eval::Verdict verdict = eval::judge_source(
          s.source, oracle.reference_for(catalog_[s.case_idx]), analyzer);
      if (verdict.syntactic_ok != s.syntactic_ok ||
          verdict.semantic_ok != s.semantic_ok) {
        tally_.fail("served verdict disagrees with an independent judge");
      }
      if (spec_.qec && s.semantic_ok && !s.has_qec) {
        tally_.fail("verified request without a QEC plan");
      }
    }
  }

  const WorkloadSpec& spec_;
  const std::vector<eval::TestCase>& catalog_;
  Tally& tally_;
  std::vector<serve::Arrival> arrivals_;
  std::size_t next_ = 0;      ///< next arrival to submit
  double schedule_vt_ = 0.0;  ///< virtual time played so far
  double cache_lookups_ = 0.0;
  double cache_hits_ = 0.0;
  std::deque<std::pair<std::size_t, std::future<serve::RequestResult>>>
      pending_;  ///< submitted, not yet harvested, in submission order
  std::vector<double> late_ms_;
  std::vector<double> latency_ms_;
  std::vector<double> submit_us_;
  std::vector<Sampled> sampled_;
  std::size_t failed_ = 0;
  std::size_t full_ = 0;
  std::size_t full_syntactic_ = 0;
  std::size_t full_semantic_ = 0;
};

/// Walks the workload's requests through each layer in turn, timing each
/// call into a layer with a span of its own.
class LayerWalk {
 public:
  LayerWalk(const WorkloadSpec& spec,
            const std::vector<eval::TestCase>& catalog, std::uint64_t seed,
            Tally& tally)
      : spec_(spec),
        catalog_(catalog),
        seed_(seed),
        tally_(tally),
        resources_(
            std::make_shared<const agents::TechniqueResources>(technique())),
        device_(agents::DeviceTopology::grid(5, 5)) {
    oracle_.prewarm(catalog_);
    serve::WorkloadOptions workload;
    workload.count = 4096;
    workload.mix = spec.mix;
    workload.seed = seed;
    arrivals_ = serve::generate_arrivals(workload, catalog_.size());
  }

  void run(double budget) {
    const auto start = Clock::now();
    do {
      step(next_++);
    } while (seconds_since(start) < budget);
  }

  std::vector<Metric> metrics() {
    std::vector<Metric> metrics;
    for (const char* name :
         {"rag_retrieve_us", "llm_generate_us", "qasm_parse_us",
          "qasm_lint_us", "qasm_lower_us", "sim_exact_us", "transpile_us",
          "qec_plan_us", "pipeline_run_us"}) {
      metrics.push_back({name, median(spans_[name]), "us"});
    }
    return metrics;
  }

 private:
  template <typename Call>
  void timed(const char* name, Call&& call) {
    const auto start = Clock::now();
    call();
    spans_[name].push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }

  void step(std::size_t i) {
    const serve::Arrival& arrival = arrivals_[i % arrivals_.size()];
    const eval::TestCase& test_case = catalog_[arrival.case_idx];
    const std::uint64_t seed = serve::request_seed(seed_, i);
    const std::size_t top_k = technique().rag_top_k;
    ++tally_.attempted;
    try {
      // The two BM25 queries generation makes (llm/simlm.cpp).
      const std::string query = llm::prompt_text(test_case.task);
      std::size_t hits = 0;
      timed("rag_retrieve_us", [&] {
        hits += resources_->api_store()
                    ->retrieve(query + " import module library version", top_k)
                    .size();
        hits += resources_->guide_store()->retrieve(query, top_k).size();
      });
      if (hits == 0) tally_.fail("retrieval returned nothing");
      agents::CodeGenAgent agent(technique(), resources_, seed);
      llm::GenerationResult generation;
      timed("llm_generate_us", [&] {
        generation = agent.generate(test_case.task, arrival.case_idx);
      });
      qasm::ParseResult parsed;
      timed("qasm_parse_us", [&] { parsed = qasm::parse(generation.source); });
      if (parsed.ok()) {
        qasm::AnalysisReport report;
        timed("qasm_lint_us",
              [&] { report = qasm::analyze(*parsed.program); });
        if (report.ok()) {
          sim::Circuit circuit;
          timed("qasm_lower_us",
                [&] { circuit = qasm::build_circuit(*parsed.program); });
          sim::Distribution distribution;
          timed("sim_exact_us",
                [&] { distribution = sim::exact_distribution(circuit); });
          timed("transpile_us",
                [&] { (void)transpile::transpile(circuit, device_); });
          // The Monte Carlo plan costs as much as all the rest; every
          // fourth step keeps it from crowding out the other spans.
          if (i % 4 == 0) {
            const qasm::analysis::ResourceSummary resources =
                qasm::analysis::summarize_entry(*parsed.program);
            agents::QecDecoderAgent::Options options = qec_options();
            options.seed = seed;
            const agents::QecDecoderAgent qec(options);
            agents::QecPlan plan;
            timed("qec_plan_us",
                  [&] { plan = qec.plan_for(device_, &resources); });
            if (!plan.feasible) tally_.fail("qec plan infeasible on a 5x5 grid");
          }
        }
      }
      agents::MultiAgentPipeline pipeline(
          technique(), resources_, {},
          spec_.qec ? std::optional(qec_options()) : std::nullopt,
          spec_.qec ? std::optional(device_) : std::nullopt, seed);
      timed("pipeline_run_us", [&] {
        (void)pipeline.run(test_case.task, *oracle_.find(test_case.id),
                           arrival.case_idx);
      });
    } catch (const std::exception& error) {
      ++tally_.failed;
      tally_.fail(std::string("layer walk: ") + error.what());
    }
  }

  const WorkloadSpec& spec_;
  const std::vector<eval::TestCase>& catalog_;
  std::uint64_t seed_;
  Tally& tally_;
  std::shared_ptr<const agents::TechniqueResources> resources_;
  agents::DeviceTopology device_;
  eval::ReferenceOracle oracle_;
  std::vector<serve::Arrival> arrivals_;
  std::size_t next_ = 0;
  std::map<std::string, std::vector<double>> spans_;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && args.seconds > 0.0;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: qcgen_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::optional<WorkloadSpec> found;
  for (const WorkloadSpec& candidate : workloads()) {
    if (args.workload == candidate.name) found = candidate;
  }
  if (!found.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const std::vector<eval::TestCase> catalog = make_catalog();

  Tally tally;
  const serve::Server::Options options = server_options(spec, args.seed);
  // Each round's server creates its worker threads while this thread runs
  // on the other CPUs, and they keep that mask; this thread moves to a CPU
  // of its own while it paces the open loop. Otherwise, in some runs and
  // not others, a worker woken onto the pacing thread's CPU preempts it
  // for a whole request's service time, which every request due meanwhile
  // is charged. The other phases run on every CPU, so the threads they
  // create are placed afresh and no phase is tied to one CPU's speed for
  // a whole run.
  const std::vector<int> all_cpus = allowed_cpus();
  std::vector<int> pacer_cpu = all_cpus;
  std::vector<int> other_cpus = all_cpus;
  if (all_cpus.size() >= 3) {
    pacer_cpu = {all_cpus.back()};
    other_cpus.pop_back();
  }

  // Rounds of about one second; serving takes 60% of each round when
  // untraced, 40% when traced. Set-up is timed for every round's server
  // and a few more times, so its median spans the run's spells of host
  // speed.
  const std::size_t rounds =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds));
  const double round_s = args.seconds / static_cast<double>(rounds);
  const double serve_share = args.trace ? 0.4 : 0.6;
  std::vector<double> setup_s;
  std::vector<Metric> metrics;
  {
    OpenLoop loop(spec, catalog, args.seed, serve_share * args.seconds, tally);
    const auto play = [&](auto& phase) {
      for (std::size_t r = 0; r < rounds; ++r) {
        phase.run((1.0 - serve_share) * round_s);
        std::unique_ptr<serve::Server> server;
        pin(other_cpus);
        setup_s.push_back(time_set_up(options, catalog, &server));
        pin(pacer_cpu);
        loop.run(*server, serve_share * round_s);
        pin(all_cpus);
        server.reset();
        for (int i = 0; i < 3; ++i) {
          setup_s.push_back(time_set_up(options, catalog));
        }
      }
      loop.finish();
    };
    if (!args.trace) {
      EvalLoop eval(spec, catalog, args.seed, all_cpus, tally);
      play(eval);
      metrics = {
          {"eval_trials_per_s", eval.trials_per_s(), "1/s"},
          {"eval_semantic_pct", eval.semantic_pct(), "%"},
          {"serve_p50_ms", loop.latency_ms(0.50), "ms"},
          {"serve_p75_ms", loop.latency_ms(0.75), "ms"},
          {"setup_s", median(setup_s), "s"},
      };
    } else {
      LayerWalk walk(spec, catalog, args.seed, tally);
      play(walk);
      metrics = walk.metrics();
      metrics.push_back({"serve_submit_us", median(loop.submit_us()), "us"});
      metrics.push_back(
          {"loadgen_late_p99_ms", quantile(loop.late_ms(), 0.99), "ms"});
      metrics.push_back({"cache_hit_pct", loop.cache_hit_pct(), "%"});
    }
  }
  std::fprintf(stderr, "setup: %zu constructions, s min %.6f p25 %.6f p50 %.6f\n",
               setup_s.size(), quantile(setup_s, 0.0), quantile(setup_s, 0.25),
               median(setup_s));
  print_result(tally, metrics);
  return 0;
}
