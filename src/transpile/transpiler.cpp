#include "transpile/transpiler.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"
#include "sim/statevector.hpp"
#include "transpile/decompose.hpp"

namespace qcgen::transpile {

TranspileResult transpile(const sim::Circuit& circuit,
                          const agents::DeviceTopology& device,
                          LayoutStrategy strategy) {
  require(circuit.num_qubits() <= device.num_qubits(),
          "transpile: circuit needs more qubits than the device has");
  TranspileResult result{sim::Circuit(1, 0), Layout{}, Layout{}, 0, 0, 0, 0};
  result.depth_before = circuit.depth();

  const sim::Circuit native = decompose(circuit);
  const Layout layout = strategy == LayoutStrategy::kTrivial
                            ? trivial_layout(circuit.num_qubits())
                            : best_layout(native, device);
  RoutedCircuit routed = route(native, device, layout);

  result.circuit = std::move(routed.circuit);
  result.initial_layout = routed.initial_layout;
  result.final_layout = routed.final_layout;
  result.swaps_inserted = routed.swaps_inserted;
  result.native_two_qubit_gates = result.circuit.multi_qubit_gate_count();
  result.depth_after = result.circuit.depth();
  return result;
}

bool equivalent(const sim::Circuit& logical, const sim::Circuit& physical,
                double tolerance) {
  const sim::Distribution a = sim::exact_distribution(logical);
  const sim::Distribution b = sim::exact_distribution(physical);
  return total_variation_distance(a, b) <= tolerance;
}

}  // namespace qcgen::transpile
