#include "agents/qec_agent.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"

namespace qcgen::agents {

namespace {

// ResourcePlan model constants. These are planning-figure conventions,
// not calibrated numbers; each is anchored to a standard reference
// point of the fault-tolerance literature.
//
/// Surface-code threshold anchoring the suppression-per-distance factor
/// Lambda = p_th / p (error rate drops by Lambda per distance +2).
constexpr double kSurfaceCodeThreshold = 0.011;
/// Magic states per Toffoli (the 7-T decomposition of ccx).
constexpr std::size_t kTPerToffoli = 7;
/// Magic states budgeted per arbitrary-angle rotation (Ross-Selinger
/// style synthesis at planning accuracy).
constexpr std::size_t kTPerRotation = 30;
/// Syndrome rounds a 15-to-1 distillation factory needs per output
/// magic state, in units of the code distance.
constexpr std::size_t kFactoryRoundsPerDistance = 6;
/// Logical tiles one distillation factory occupies.
constexpr std::size_t kFactoryTiles = 12;

/// Smallest odd distance (>= 3, <= max_distance) whose projected
/// per-round logical error meets `target`; falls back to max_distance
/// (target_met = false) when none does. The projection extrapolates the
/// measured rate at the probe distance with Lambda^(-(d - probe)/2).
void solve_distance(ResourcePlan& plan, double measured_error,
                    int probe_distance, double lambda, int max_distance) {
  plan.target_met = false;
  plan.code_distance = max_distance;
  plan.projected_error_per_round = measured_error;
  const auto projected = [&](int d) {
    return measured_error *
           std::pow(lambda,
                    -static_cast<double>(d - probe_distance) / 2.0);
  };
  for (int d = 3; d <= max_distance; d += 2) {
    if (lambda <= 1.0 && d != probe_distance) continue;
    if (projected(d) <= plan.target_logical_error) {
      plan.code_distance = d;
      plan.target_met = true;
      break;
    }
  }
  plan.projected_error_per_round = projected(plan.code_distance);
}

}  // namespace

qec::LifetimeReport QecLifetimeMemo::measure(
    int distance, double p_data, const qec::LifetimeConfig& config) {
  const Key key{distance,      config.decoder, p_data, config.meas_error_ratio,
                config.rounds, config.trials,  config.seed};
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto found = reports_.find(key); found != reports_.end()) {
    return found->second;
  }
  const trace::SinkScope untraced(nullptr);
  const qec::LifetimeReport report = qec::measure_lifetime(
      qec::SurfaceCode::rotated(distance), p_data, config);
  reports_.emplace(key, report);
  return report;
}

std::size_t QecLifetimeMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reports_.size();
}

QecDecoderAgent::QecDecoderAgent(Options options) : options_(options) {
  require(options_.target_distance >= 3 && options_.target_distance % 2 == 1,
          "QecDecoderAgent: distance must be odd and >= 3");
  require(options_.trials >= 100, "QecDecoderAgent: trials >= 100");
}

double physical_data_error(const sim::NoiseModel& noise) {
  // Per-round data error: dominated by two-qubit gate depolarization plus
  // the single-qubit channel. Idle error is absorbed into the syndrome
  // measurement channel rather than double-counted here.
  return std::clamp(noise.depolarizing_2q + noise.depolarizing_1q, 1e-6, 0.5);
}

QecPlan QecDecoderAgent::plan_for(
    const DeviceTopology& device,
    const qasm::analysis::ResourceSummary* program,
    QecLifetimeMemo* memo) const {
  QecPlan plan;
  plan.physical_noise = device.noise();
  plan.decoder = options_.decoder;

  const int max_d = device.max_surface_code_distance();
  if (max_d < options_.target_distance) {
    plan.reason = "device '" + device.name() + "' (" +
                  std::string(topology_kind_name(device.kind())) +
                  ") cannot host a distance-" +
                  std::to_string(options_.target_distance) +
                  " rotated surface code (max distance " +
                  std::to_string(max_d) + ")";
    return plan;
  }
  plan.feasible = true;
  plan.distance = options_.target_distance;

  // Decoder synthesis cost model: proportional to the matching-graph
  // size, doubled on heavy-hex (embedding + per-topology retraining) and
  // halved on fully-connected simulators.
  const double graph_nodes =
      static_cast<double>(plan.distance * plan.distance - 1);
  double topology_factor = 1.0;
  switch (device.kind()) {
    case TopologyKind::kGrid: topology_factor = 1.0; break;
    case TopologyKind::kHeavyHex: topology_factor = 2.2; break;
    case TopologyKind::kFull: topology_factor = 0.6; break;
    case TopologyKind::kLinear: topology_factor = 10.0; break;
  }
  plan.synthesis_cost = graph_nodes * graph_nodes * topology_factor;

  qec::LifetimeConfig config;
  config.decoder = options_.decoder;
  const double p_data = physical_data_error(device.noise());
  // Ancilla readout contributes the syndrome-flip channel; the ratio is
  // capped because repeated extraction averages single-shot readout
  // error down.
  config.meas_error_ratio =
      device.noise().readout_error > 0.0
          ? std::clamp(device.noise().readout_error / p_data, 0.5, 1.2)
          : 1.0;
  config.trials = options_.trials;
  config.seed = options_.seed;
  // The Monte Carlo loop's first cancellation point, taken here so a memo
  // hit observes a cancelled or exhausted request at the same site.
  cancel::checkpoint("qec.decode.round");
  plan.lifetime =
      memo != nullptr
          ? memo->measure(plan.distance, p_data, config)
          : qec::measure_lifetime(qec::SurfaceCode::rotated(plan.distance),
                                  p_data, config);
  plan.effective_noise =
      qec::qec_effective_noise(device.noise(), plan.lifetime);

  if (program != nullptr && program->computed) {
    ResourcePlan& res = plan.resources;
    res.computed = true;
    res.logical_qubits = program->qubits;
    res.circuit_depth = program->depth;
    res.t_count = program->t_count;
    res.t_depth = program->t_depth;
    res.two_qubit_count = program->two_qubit_count;
    res.t_equivalents = program->t_count +
                        kTPerToffoli * program->ccx_count +
                        kTPerRotation * program->rotation_count;
    res.target_logical_error = options_.target_logical_error;

    // Distance: anchor the suppression model at the Monte-Carlo
    // measurement this plan just took (probe distance = plan.distance).
    const double lambda = kSurfaceCodeThreshold / p_data;
    solve_distance(res, plan.lifetime.logical_error_per_round, plan.distance,
                   lambda, max_d);
    const auto d = static_cast<std::size_t>(res.code_distance);

    // Space.
    res.physical_qubits_per_logical = 2 * d * d - 1;
    res.data_physical_qubits =
        res.logical_qubits * res.physical_qubits_per_logical;
    // Lattice-surgery routing lanes: one ancilla tile per two logical
    // tiles (50% overhead, rounded up).
    res.routing_physical_qubits =
        ((res.logical_qubits + 1) / 2) * res.physical_qubits_per_logical;

    // Time: one logical layer = d syndrome rounds.
    res.logical_time_rounds = std::max<std::size_t>(res.circuit_depth, 1) * d;
    res.factory_rounds_per_state = kFactoryRoundsPerDistance * d;

    // Factories: enough throughput to feed every magic state within the
    // program's logical time, capped at the peak parallel consumption
    // the T-depth admits.
    if (res.t_equivalents > 0) {
      const std::size_t throughput_need =
          (res.t_equivalents * res.factory_rounds_per_state +
           res.logical_time_rounds - 1) /
          res.logical_time_rounds;
      const std::size_t parallel_cap =
          res.t_depth > 0
              ? (res.t_equivalents + res.t_depth - 1) / res.t_depth
              : res.t_equivalents;
      res.factory_count =
          std::max<std::size_t>(1, std::min(throughput_need, parallel_cap));
      res.factory_physical_qubits =
          res.factory_count * kFactoryTiles * res.physical_qubits_per_logical;
    }

    // Routing overhead in gate count: BFS distance over the coupling
    // map under the identity layout, 3 cx per swap.
    const qasm::lint::CouplingMap topo = coupling_map(device);
    for (const auto& pair : program->two_qubit_pairs) {
      const std::size_t hops = qasm::lint::coupling_distance(topo, pair.a,
                                                             pair.b);
      if (hops >= 2) res.routing_extra_cx += pair.count * 3 * (hops - 1);
    }

    res.total_physical_qubits = res.data_physical_qubits +
                                res.routing_physical_qubits +
                                res.factory_physical_qubits;
    res.space_time_volume = static_cast<double>(res.total_physical_qubits) *
                            static_cast<double>(res.logical_time_rounds);
  }
  return plan;
}

Json resource_plan_to_json(const ResourcePlan& plan) {
  Json out;
  out["computed"] = plan.computed;
  out["logical_qubits"] = plan.logical_qubits;
  out["circuit_depth"] = plan.circuit_depth;
  out["t_count"] = plan.t_count;
  out["t_depth"] = plan.t_depth;
  out["t_equivalents"] = plan.t_equivalents;
  out["two_qubit_count"] = plan.two_qubit_count;
  out["target_logical_error"] = plan.target_logical_error;
  out["code_distance"] = plan.code_distance;
  out["target_met"] = plan.target_met;
  out["projected_error_per_round"] = plan.projected_error_per_round;
  out["physical_qubits_per_logical"] = plan.physical_qubits_per_logical;
  out["data_physical_qubits"] = plan.data_physical_qubits;
  out["routing_physical_qubits"] = plan.routing_physical_qubits;
  out["factory_count"] = plan.factory_count;
  out["factory_physical_qubits"] = plan.factory_physical_qubits;
  out["total_physical_qubits"] = plan.total_physical_qubits;
  out["factory_rounds_per_state"] = plan.factory_rounds_per_state;
  out["logical_time_rounds"] = plan.logical_time_rounds;
  out["routing_extra_cx"] = plan.routing_extra_cx;
  out["space_time_volume"] = plan.space_time_volume;
  return out;
}

std::pair<std::unique_ptr<qec::Decoder>, std::unique_ptr<qec::Decoder>>
QecDecoderAgent::build_decoders(const QecPlan& plan) {
  require(plan.feasible, "build_decoders: plan is infeasible");
  const qec::SurfaceCode code = qec::SurfaceCode::rotated(plan.distance);
  return {qec::make_decoder(plan.decoder, code, qec::PauliType::kZ),
          qec::make_decoder(plan.decoder, code, qec::PauliType::kX)};
}

}  // namespace qcgen::agents
