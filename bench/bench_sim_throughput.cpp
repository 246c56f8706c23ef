// PERF-SIM: google-benchmark microbenchmarks of the simulation substrate
// every experiment rests on: state-vector gate throughput, noisy
// trajectory sampling, tableau operations, syndrome extraction and
// decoder throughput, plus the language front-end.
//
// Harness flags come first; unrecognised --benchmark_* flags pass
// through to google-benchmark. --quick / --samples 1 injects a short
// --benchmark_min_time so the CI smoke run stays cheap.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "llm/templates.hpp"
#include "qasm/builder.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qec/logical_error.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"
#include "sim/tableau.hpp"

using namespace qcgen;

namespace {

void BM_StateVectorHadamardLayer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const sim::Matrix2 h = sim::gate_matrix_1q(sim::GateKind::kH, {});
  for (auto _ : state) {
    for (std::size_t q = 0; q < n; ++q) sv.apply_1q(h, q);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StateVectorHadamardLayer)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_StateVectorCxChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StateVector sv(n);
  const sim::Matrix2 x = sim::gate_matrix_1q(sim::GateKind::kX, {});
  for (auto _ : state) {
    for (std::size_t q = 0; q + 1 < n; ++q) sv.apply_controlled_1q(x, q, q + 1);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n - 1));
}
BENCHMARK(BM_StateVectorCxChain)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_IdealGhzSampling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Circuit circuit = sim::circuits::ghz(n);
  for (auto _ : state) {
    const Counts counts = sim::run_ideal(circuit, sim::RunOptions{1024, 7});
    benchmark::DoNotOptimize(counts.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_IdealGhzSampling)->Arg(4)->Arg(8)->Arg(12);

void BM_NoisyDeutschJozsa(benchmark::State& state) {
  const sim::Circuit circuit = sim::circuits::deutsch_jozsa(3, true);
  const sim::NoiseModel noise = sim::NoiseModel::ibm_brisbane();
  for (auto _ : state) {
    const Counts counts =
        sim::run_noisy(circuit, noise, sim::NoisyRunOptions{256, 3});
    benchmark::DoNotOptimize(counts.size());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_NoisyDeutschJozsa);

void BM_TableauGhzMeasure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Tableau tab(n);
  Rng rng(5);
  for (auto _ : state) {
    tab.reset_all();
    tab.h(0);
    for (std::size_t q = 1; q < n; ++q) tab.cx(q - 1, q);
    bool bit = false;
    for (std::size_t q = 0; q < n; ++q) bit ^= tab.measure(q, rng);
    benchmark::DoNotOptimize(bit);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_TableauGhzMeasure)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_SyndromeSampling(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const qec::SurfaceCode code = qec::SurfaceCode::rotated(d);
  qec::PhenomenologicalNoise noise{0.01, 0.01};
  Rng rng(11);
  for (auto _ : state) {
    const auto history =
        qec::sample_history(code, noise, static_cast<std::size_t>(d), rng);
    benchmark::DoNotOptimize(history.rounds.size());
  }
}
BENCHMARK(BM_SyndromeSampling)->Arg(3)->Arg(5)->Arg(7);

void BM_DecoderTrial(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const auto kind = static_cast<qec::DecoderKind>(state.range(1));
  const qec::SurfaceCode code = qec::SurfaceCode::rotated(d);
  auto z_dec = qec::make_decoder(kind, code, qec::PauliType::kZ);
  auto x_dec = qec::make_decoder(kind, code, qec::PauliType::kX);
  qec::PhenomenologicalNoise noise{0.02, 0.02};
  Rng rng(13);
  for (auto _ : state) {
    const auto history =
        qec::sample_history(code, noise, static_cast<std::size_t>(d), rng);
    const auto outcome = qec::decode_history(code, *z_dec, *x_dec, history);
    benchmark::DoNotOptimize(outcome.corrections_applied);
  }
}
BENCHMARK(BM_DecoderTrial)
    ->Args({3, static_cast<int>(qec::DecoderKind::kMwpm)})
    ->Args({5, static_cast<int>(qec::DecoderKind::kMwpm)})
    ->Args({3, static_cast<int>(qec::DecoderKind::kUnionFind)})
    ->Args({5, static_cast<int>(qec::DecoderKind::kUnionFind)})
    ->Args({3, static_cast<int>(qec::DecoderKind::kGreedy)})
    ->Args({5, static_cast<int>(qec::DecoderKind::kGreedy)});

void BM_ParseAnalyzeBuild(benchmark::State& state) {
  llm::TaskSpec task;
  task.algorithm = llm::AlgorithmId::kGrover;
  task.params = {{"n", 3.0}, {"marked", 5.0}, {"iterations", 2.0}};
  const std::string source = qasm::print_program(llm::gold_program(task));
  for (auto _ : state) {
    const sim::Circuit circuit = qasm::compile_or_throw(source);
    benchmark::DoNotOptimize(circuit.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_ParseAnalyzeBuild);

void BM_ExactDistribution(benchmark::State& state) {
  const sim::Circuit circuit = sim::circuits::teleportation(1.1);
  for (auto _ : state) {
    const auto dist = sim::exact_distribution(circuit);
    benchmark::DoNotOptimize(dist.size());
  }
}
BENCHMARK(BM_ExactDistribution);

/// Console reporter that also captures every run into the harness report:
/// its name under "results", its wall-clock figures under "timing".
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      names.push_back(Json(run.benchmark_name()));
      Json record;
      record["name"] = run.benchmark_name();
      record["iterations"] = run.iterations;
      record["real_time"] = run.GetAdjustedRealTime();
      record["time_unit"] = std::string(
          benchmark::GetTimeUnitString(run.time_unit));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        record["items_per_second"] = static_cast<double>(items->second);
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        record["bytes_per_second"] = static_cast<double>(bytes->second);
      }
      captured.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  JsonArray names;
  JsonArray captured;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("sim_throughput", argc, argv, {.samples = 1});
  trace::SinkScope trace_scope(harness.trace_sink());

  // Rebuild an argv for google-benchmark: program name + passthrough
  // --benchmark_* flags, with a short min-time injected for smoke runs
  // unless the caller pinned one explicitly.
  std::vector<std::string> flag_storage;
  flag_storage.emplace_back(argv[0]);
  bool min_time_given = false;
  for (const std::string& flag : harness.passthrough()) {
    if (flag.rfind("--benchmark_min_time", 0) == 0) min_time_given = true;
    flag_storage.push_back(flag);
  }
  if (!min_time_given && (harness.quick() || harness.samples() <= 1)) {
    flag_storage.emplace_back("--benchmark_min_time=0.01");
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(flag_storage.size());
  for (std::string& flag : flag_storage) bench_argv.push_back(flag.data());
  int bench_argc = static_cast<int>(bench_argv.size());

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  harness.record("benchmarks", Json(std::move(reporter.names)));
  harness.record_timing("benchmarks", Json(std::move(reporter.captured)));
  return harness.finish();
}
