#pragma once
// Top-level transpiler: decompose -> layout -> route, with the metrics
// the topology benchmarks report.

#include "agents/topology.hpp"
#include "sim/circuit.hpp"
#include "transpile/decompose.hpp"
#include "transpile/layout.hpp"
#include "transpile/router.hpp"

namespace qcgen::transpile {

/// Layout strategy selector.
enum class LayoutStrategy { kTrivial, kGreedy };

/// Transpilation summary.
struct TranspileResult {
  sim::Circuit circuit;  ///< native-basis, connectivity-respecting
  Layout initial_layout;
  Layout final_layout;
  std::size_t swaps_inserted = 0;
  std::size_t native_two_qubit_gates = 0;
  std::size_t depth_before = 0;
  std::size_t depth_after = 0;
};

/// Full pipeline. Throws if the circuit does not fit the device.
TranspileResult transpile(const sim::Circuit& circuit,
                          const agents::DeviceTopology& device,
                          LayoutStrategy strategy = LayoutStrategy::kGreedy);

/// Exact behavioural-equivalence check between a logical circuit and its
/// transpiled form: compares exact measurement distributions over the
/// shared classical register. (Both circuits must be within state-vector
/// reach; intended for tests and verification reports.)
bool equivalent(const sim::Circuit& logical, const sim::Circuit& physical,
                double tolerance = 1e-9);

}  // namespace qcgen::transpile
