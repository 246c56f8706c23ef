#pragma once
// QEC Decoder Generation Agent (paper Sec III-A, third agent).
//
// Given the target device topology, validates that a surface code of the
// requested distance embeds into it, synthesises the decoder, measures
// the resulting logical-error suppression, and derives the effective
// (post-QEC) noise model used to resimulate results — the paper's Fig 4
// methodology. The agent is topology-specific: non-lattice devices incur
// a retraining/synthesis cost, the scalability problem Sec V-E flags.

#include <compare>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "agents/topology.hpp"
#include "common/json.hpp"
#include "qasm/analysis/resources.hpp"
#include "qec/decoder.hpp"
#include "qec/lifetime.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::agents {

/// Fault-tolerant cost estimate for one program on one device, derived
/// from the static resource lattice (qasm/analysis) and the measured
/// logical-error suppression. All model constants are documented at the
/// computation site (qec_agent.cpp); the estimate is a planning figure,
/// not a compilation.
struct ResourcePlan {
  bool computed = false;

  // Program inputs (upper bounds from the static analysis).
  std::size_t logical_qubits = 0;  ///< qubits the program declares
  std::size_t circuit_depth = 0;
  std::size_t t_count = 0;  ///< explicit t/tdg gates
  std::size_t t_depth = 0;
  /// Magic states consumed: t_count + 7 per ccx (Toffoli decomposition)
  /// + a fixed synthesis budget per non-Clifford rotation.
  std::size_t t_equivalents = 0;
  std::size_t two_qubit_count = 0;

  // Code-distance solve against the target logical error rate, using
  // the measured per-round logical error at the probe distance and the
  // suppression-per-distance model Lambda = p_th / p.
  double target_logical_error = 0.0;
  int code_distance = 0;
  /// False when even the device's maximum distance misses the target.
  bool target_met = false;
  /// Projected per-round logical error at code_distance.
  double projected_error_per_round = 0.0;

  // Space: rotated surface code uses 2d^2 - 1 physical qubits per
  // logical tile; routing reserves lattice-surgery lanes, factories
  // occupy fixed tile footprints.
  std::size_t physical_qubits_per_logical = 0;
  std::size_t data_physical_qubits = 0;
  std::size_t routing_physical_qubits = 0;
  std::size_t factory_count = 0;
  std::size_t factory_physical_qubits = 0;
  std::size_t total_physical_qubits = 0;

  // Time: one logical layer costs d syndrome rounds; factories pipeline
  // magic states at factory_rounds_per_state per output.
  std::size_t factory_rounds_per_state = 0;
  std::size_t logical_time_rounds = 0;
  /// Extra cx from routing the program's two-qubit pairs over the
  /// device coupling map under the identity layout (3 per swap).
  std::size_t routing_extra_cx = 0;

  /// total_physical_qubits x logical_time_rounds (qubit-rounds).
  double space_time_volume = 0.0;
};

/// Output of the QEC agent for one device.
struct QecPlan {
  bool feasible = false;
  std::string reason;  ///< set when infeasible
  int distance = 0;
  qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
  qec::LifetimeReport lifetime;
  sim::NoiseModel physical_noise;
  sim::NoiseModel effective_noise;
  /// Decoder synthesis cost in abstract work units; lattice devices host
  /// the code natively, heavy-hex devices pay the embedding/retraining
  /// overhead (ABL-TOPO measures this).
  double synthesis_cost = 0.0;
  /// Fault-tolerant cost estimate; computed only when plan_for received
  /// a program resource summary (and the plan is feasible).
  ResourcePlan resources;
};

/// Memo of plan_for's Monte Carlo lifetime estimate. The estimate is a
/// pure function of its inputs (distance, decoder, device noise, trial
/// count and the options seed; never a request's seed), so one owner — a
/// serve::Server, or one eval::run_trial_matrix call — hands a single
/// memo to every pipeline it builds and computes each key once. Keys are
/// bounded by the owner's QEC options: one per decoder rung. Thread-safe;
/// a miss is computed under the mutex, records into no trace sink (which
/// caller fills the memo depends on the thread schedule), and stays
/// unfilled when the computation throws (a cancelled fill).
class QecLifetimeMemo {
 public:
  /// The memoized qec::measure_lifetime(SurfaceCode::rotated(distance),
  /// p_data, config).
  qec::LifetimeReport measure(int distance, double p_data,
                              const qec::LifetimeConfig& config);

  /// Number of filled keys.
  std::size_t size() const;

 private:
  struct Key {
    int distance = 0;
    qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
    double p_data = 0.0;
    double meas_error_ratio = 0.0;
    std::size_t rounds = 0;
    std::size_t trials = 0;
    std::uint64_t seed = 0;
    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mutex_;
  std::map<Key, qec::LifetimeReport> reports_;
};

class QecDecoderAgent {
 public:
  struct Options {
    int target_distance = 3;
    qec::DecoderKind decoder = qec::DecoderKind::kMwpm;
    std::size_t trials = 3000;
    std::uint64_t seed = 5;
    /// Per-round logical error rate the ResourcePlan distance solve
    /// targets (modest default: realistic near-term planning figure).
    double target_logical_error = 1e-6;
  };

  QecDecoderAgent() : QecDecoderAgent(Options()) {}
  explicit QecDecoderAgent(Options options);

  const Options& options() const noexcept { return options_; }

  /// Plans QEC for a device; infeasible plans carry a reason. When a
  /// program resource summary is supplied (static analysis of the
  /// program about to run fault-tolerantly), the plan also carries a
  /// ResourcePlan cost estimate. With a `memo`, the lifetime estimate
  /// is read from (or filled into) it instead of recomputed.
  QecPlan plan_for(const DeviceTopology& device,
                   const qasm::analysis::ResourceSummary* program = nullptr,
                   QecLifetimeMemo* memo = nullptr) const;

  /// Constructs the decoders for a feasible plan (both stabilizer types).
  static std::pair<std::unique_ptr<qec::Decoder>,
                   std::unique_ptr<qec::Decoder>>
  build_decoders(const QecPlan& plan);

 private:
  Options options_;
};

/// Extracts the per-round physical data-error probability from a device
/// noise model (two-qubit depolarizing dominates the error budget).
double physical_data_error(const sim::NoiseModel& noise);

/// Serialises a ResourcePlan for bench/eval JSON artifacts (all counts
/// as non-negative integers; null-free, deterministic key set).
Json resource_plan_to_json(const ResourcePlan& plan);

}  // namespace qcgen::agents
