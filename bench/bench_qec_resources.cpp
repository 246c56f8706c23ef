// QEC-RESOURCES: static resource lattice -> fault-tolerant cost plan.
// Sweeps every gold template workload across probe distances {3,5,7} on
// a 13x13 grid device, feeding each program's static ResourceSummary
// (qasm/analysis) to the QEC agent's ResourcePlan solver: code distance
// from the target logical error rate, magic-state factory count from
// T-count/T-depth, routing overhead from the coupling map, and the
// resulting space-time volume.
//
// Deterministic at any --threads: each sweep row seeds its lifetime
// Monte-Carlo from its own eval::trial_seed stream and rows are
// aggregated in index order, so the JSON artifact is bit-identical from
// --threads 1 to N. The report carries a "resources" section
// with the per-workload static counts.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agents/qec_agent.hpp"
#include "agents/topology.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "eval/parallel.hpp"
#include "harness.hpp"
#include "llm/tasks.hpp"
#include "llm/templates.hpp"
#include "qasm/analysis/resources.hpp"

using namespace qcgen;
using qasm::analysis::ResourceSummary;

namespace {

constexpr int kDistances[] = {3, 5, 7};

struct Workload {
  std::string name;
  ResourceSummary summary;
};

struct SweepRow {
  std::size_t workload = 0;
  int probe_distance = 3;
  agents::QecPlan plan;
};

Json static_counts_json(const Workload& w) {
  Json row;
  row["workload"] = w.name;
  const ResourceSummary& s = w.summary;
  row["qubits"] = s.qubits;
  row["qubits_used"] = s.qubits_used;
  row["gate_count"] = s.gate_count;
  row["t_count"] = s.t_count;
  row["ccx_count"] = s.ccx_count;
  row["rotation_count"] = s.rotation_count;
  row["two_qubit_count"] = s.two_qubit_count;
  row["non_clifford_count"] = s.non_clifford_count;
  row["measure_count"] = s.measure_count;
  row["depth"] = s.depth;
  row["t_depth"] = s.t_depth;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("qec_resources", argc, argv,
                         {.samples = 3, .quick_samples = 1});
  trace::SinkScope trace_scope(harness.trace_sink());

  std::printf("QEC-RESOURCES: static cost lattice -> fault-tolerant "
              "resource plan, every gold template x distance {3,5,7}\n\n");

  // ---- stage 1: static analysis of every gold template -------------
  std::vector<Workload> workloads;
  for (const llm::AlgorithmId id : llm::all_algorithms()) {
    llm::TaskSpec task;
    task.algorithm = id;
    Workload w;
    w.name = std::string(llm::algorithm_name(id));
    w.summary = qasm::analysis::summarize_entry(llm::gold_program(task));
    workloads.push_back(std::move(w));
  }

  // ---- stage 2: distance sweep, parallel + index-ordered -----------
  const agents::DeviceTopology device = agents::DeviceTopology::grid(13, 13);
  const std::size_t rows =
      workloads.size() * (sizeof(kDistances) / sizeof(kDistances[0]));
  std::vector<SweepRow> sweep(rows);
  std::vector<std::unique_ptr<trace::TraceSink>> sinks(rows);
  if (harness.trace_requested()) {
    for (auto& sink : sinks) sink = std::make_unique<trace::TraceSink>();
  }
  const std::size_t mc_trials = 100 * harness.samples();
  {
    ThreadPool pool(harness.threads());
    pool.parallel_for(rows, [&](std::size_t i) {
      trace::SinkScope scope(sinks[i].get());
      SweepRow& row = sweep[i];
      row.workload = i / 3;
      row.probe_distance = kDistances[i % 3];
      agents::QecDecoderAgent::Options options;
      options.target_distance = row.probe_distance;
      options.trials = mc_trials;
      options.seed = eval::trial_seed(harness.seed(), i, 0);
      row.plan = agents::QecDecoderAgent(options).plan_for(
          device, &workloads[row.workload].summary);
    });
  }

  // ---- aggregate in row index order --------------------------------
  JsonArray sweep_rows;
  std::size_t feasible = 0;
  std::size_t computed = 0;
  std::size_t target_met = 0;
  std::size_t shape_errors = 0;
  const int max_d = device.max_surface_code_distance();
  for (std::size_t i = 0; i < rows; ++i) {
    const SweepRow& row = sweep[i];
    const agents::QecPlan& plan = row.plan;
    const agents::ResourcePlan& res = plan.resources;
    if (plan.feasible) ++feasible;
    if (res.computed) ++computed;
    if (res.target_met) ++target_met;
    // Shape checks, per row: a feasible plan with a computed estimate,
    // an odd in-range solved distance, factories iff magic states, and
    // a consistent physical-qubit total.
    const bool distance_ok = res.code_distance >= 3 &&
                             res.code_distance <= max_d &&
                             res.code_distance % 2 == 1;
    const bool factories_ok =
        (res.t_equivalents > 0) == (res.factory_count > 0);
    const bool space_ok =
        res.total_physical_qubits ==
            res.data_physical_qubits + res.routing_physical_qubits +
                res.factory_physical_qubits &&
        res.total_physical_qubits > 0;
    if (!plan.feasible || !res.computed || !distance_ok || !factories_ok ||
        !space_ok) {
      ++shape_errors;
    }
    Json json_row;
    json_row["workload"] = workloads[row.workload].name;
    json_row["probe_distance"] = row.probe_distance;
    json_row["logical_error_per_round"] =
        plan.lifetime.logical_error_per_round;
    json_row["plan"] = agents::resource_plan_to_json(res);
    sweep_rows.push_back(std::move(json_row));
    if (harness.trace_sink() != nullptr && sinks[i] != nullptr) {
      harness.trace_sink()->merge(*sinks[i]);
    }
  }

  // ---- report ------------------------------------------------------
  Table table({"workload", "qubits", "T-eq", "depth", "distance",
               "factories", "physical", "volume"});
  table.set_title("Fault-tolerant resource plans (probe distance 5)");
  for (std::size_t i = 0; i < rows; ++i) {
    if (sweep[i].probe_distance != 5) continue;
    const agents::ResourcePlan& res = sweep[i].plan.resources;
    table.add_row({workloads[sweep[i].workload].name,
                   std::to_string(res.logical_qubits),
                   std::to_string(res.t_equivalents),
                   std::to_string(res.circuit_depth),
                   std::to_string(res.code_distance) +
                       (res.target_met ? "" : "!"),
                   std::to_string(res.factory_count),
                   std::to_string(res.total_physical_qubits),
                   format_double(res.space_time_volume, 0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("('!' marks plans where even the device's max distance %d "
              "misses the %g target.)\n", max_d, 1e-6);
  std::printf("Shape checks: every row feasible with a computed estimate, "
              "solved distance odd in [3,%d], factories iff magic states, "
              "physical-qubit totals consistent (exit 1 otherwise).\n",
              max_d);

  JsonArray static_rows;
  for (const Workload& w : workloads) {
    static_rows.push_back(static_counts_json(w));
  }
  harness.record_section("resources", Json(std::move(static_rows)));

  Json sweep_json;
  sweep_json["device"] = device.name();
  sweep_json["rows"] = Json(std::move(sweep_rows));
  sweep_json["feasible"] = feasible;
  sweep_json["computed"] = computed;
  sweep_json["target_met"] = target_met;
  sweep_json["shape_errors"] = shape_errors;
  harness.record("sweep", std::move(sweep_json));
  harness.record("workloads", workloads.size());
  harness.record("mc_trials_per_row", mc_trials);

  harness.set_trials(rows * mc_trials);
  return harness.finish(shape_errors == 0 ? 0 : 1);
}
