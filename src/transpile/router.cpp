#include "transpile/router.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.hpp"
#include "transpile/decompose.hpp"

namespace qcgen::transpile {

using agents::DeviceTopology;
using sim::Circuit;
using sim::GateKind;
using sim::Operation;

namespace {

/// BFS shortest path between two physical qubits; returns the vertex
/// sequence including both endpoints.
std::vector<std::size_t> shortest_path(const DeviceTopology& device,
                                       std::size_t from, std::size_t to) {
  const std::size_t n = device.num_qubits();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] : device.edges()) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<std::size_t> parent(n, n);
  std::queue<std::size_t> queue;
  parent[from] = from;
  queue.push(from);
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    if (u == to) break;
    for (std::size_t v : adj[u]) {
      if (parent[v] == n) {
        parent[v] = u;
        queue.push(v);
      }
    }
  }
  ensure(parent[to] != n, "route: device coupling graph is disconnected");
  std::vector<std::size_t> path;
  for (std::size_t v = to; v != from; v = parent[v]) path.push_back(v);
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

/// Emits a SWAP as three CX (native basis) on physical qubits.
void emit_swap(Circuit& out, std::size_t a, std::size_t b) {
  out.cx(a, b);
  out.cx(b, a);
  out.cx(a, b);
}

}  // namespace

RoutedCircuit route(const Circuit& circuit, const DeviceTopology& device,
                    const Layout& layout) {
  require(circuit.num_qubits() <= device.num_qubits(),
          "route: circuit larger than device");
  require(layout.physical_of.size() == circuit.num_qubits(),
          "route: layout arity mismatch");

  RoutedCircuit result{
      Circuit(device.num_qubits(), circuit.num_clbits()), layout, layout, 0};
  Layout& current = result.final_layout;

  for (const Operation& op : circuit.operations()) {
    if (op.kind == GateKind::kBarrier) {
      result.circuit.barrier();
      continue;
    }
    if (op.qubits.size() == 1) {
      Operation mapped = op;
      mapped.qubits = {current.physical(op.qubits[0])};
      result.circuit.append(std::move(mapped));
      continue;
    }
    if (op.kind != GateKind::kCX) {
      throw InvalidArgumentError("route: non-native multi-qubit gate '" +
                                 std::string(sim::gate_name(op.kind)) +
                                 "'; decompose first");
    }
    std::size_t pc = current.physical(op.qubits[0]);
    std::size_t pt = current.physical(op.qubits[1]);
    if (!device.are_coupled(pc, pt)) {
      // Walk the control along the shortest path until adjacent to the
      // target, swapping the logical payloads as we go.
      const auto path = shortest_path(device, pc, pt);
      for (std::size_t step = 0; step + 2 < path.size(); ++step) {
        const std::size_t a = path[step];
        const std::size_t b = path[step + 1];
        emit_swap(result.circuit, a, b);
        ++result.swaps_inserted;
        // Update the layout: whatever logical qubits live on a/b swap.
        for (auto& phys : current.physical_of) {
          if (phys == a) {
            phys = b;
          } else if (phys == b) {
            phys = a;
          }
        }
      }
      pc = current.physical(op.qubits[0]);
      pt = current.physical(op.qubits[1]);
      ensure(device.are_coupled(pc, pt), "route: swap walk failed");
    }
    Operation mapped = op;
    mapped.qubits = {pc, pt};
    result.circuit.append(std::move(mapped));
  }
  return result;
}

}  // namespace qcgen::transpile
