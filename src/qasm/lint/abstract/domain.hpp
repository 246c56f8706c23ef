#pragma once
// Stabilizer-domain abstract state for the lint abstract interpreter.
//
// The domain is a concrete Clifford tableau (sim::CliffordTableau) plus
// a top-set T of qubits whose state the analysis has stopped tracking
// (touched by non-Clifford gates, conditionally mutated, ...). The
// abstraction invariant: the true state is Phi(psi) for the tableau
// state psi (under some assignment of its unknown signs) and some
// quantum channel Phi acting only on qubits in T. Consequently every
// *definite* claim derived from the tableau about qubits outside T —
// "this measurement is deterministic with outcome b", "this qubit is in
// |0>" — is exact: claims are Pauli-Z eigenspace memberships, channels
// on T cannot move the state out of an eigenspace of an observable
// supported off T, and conditioning on commuting measurements preserves
// eigenspace membership too.
//
// Widening is per-qubit (add to T); the join at guard merge points is
// implemented by the interpreter as widening every qubit a maybe-taken
// branch touches, which makes the two branch states comparable without
// a pairwise tableau join.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sim/clifford.hpp"
#include "sim/gates.hpp"

namespace qcgen::qasm::lint::abstract {

using sim::SignBit;

class AbstractState {
 public:
  AbstractState(std::size_t num_qubits, std::size_t num_clbits);

  std::size_t num_qubits() const { return kernel_.num_qubits(); }

  bool is_top(std::size_t q) const { return top_[q]; }
  void widen(std::size_t q) { top_[q] = true; }

  /// Abstract classical bit value (kUnknown = top).
  SignBit clbit(std::size_t c) const { return clbits_[c]; }
  void set_clbit(std::size_t c, SignBit v) { clbits_[c] = v; }

  /// Deterministic Z-value of a tracked qubit: nullopt when the qubit is
  /// top or its measurement would be random; otherwise the outcome sign
  /// (possibly kUnknown when derived from untracked signs).
  std::optional<SignBit> z_value(std::size_t q) const;
  /// Exact claim "q is in |0>" (tracked, deterministic, sign known 0).
  bool provably_zero(std::size_t q) const;

  /// True for gate kinds the tableau can conjugate directly.
  static bool clifford_appliable(sim::GateKind kind);
  /// True for gates diagonal in the computational basis: on a qubit in a
  /// definite Z-eigenstate they act as a global phase, so such operands
  /// need no widening.
  static bool diagonal(sim::GateKind kind);

  /// Applies a Clifford gate. Caller guarantees clifford_appliable and
  /// that every operand is tracked (not top) and in range.
  void apply_clifford(sim::GateKind kind, std::span<const std::size_t> qs);

  /// Abstract Z-measurement of q. Top qubit: outcome kUnknown, state
  /// unchanged (the forgotten-outcome measurement is a channel on {q},
  /// absorbed into the top channel). Deterministic: returns the outcome,
  /// no collapse. Random: collapses to an unknown-sign branch, so later
  /// claims about entangled partners stay correlated instead of going
  /// falsely deterministic.
  SignBit measure(std::size_t q);

  /// Abstract reset of q to |0>. Re-concretizes q (removes it from T):
  /// sound because after a reset the true state of q is exactly |0>,
  /// unentangled. When q was top, every qubit that shares entanglement
  /// with q in the tableau is widened first — a channel on T may have
  /// rerouted q's correlations with those partners onto other T members,
  /// and the tableau-level collapse would otherwise erase them.
  void reset(std::size_t q);

  const sim::CliffordTableau& kernel() const { return kernel_; }

 private:
  /// Marks (in `out`) the connected component of q under "co-occurs in
  /// some stabilizer generator's support": a superset of the qubits the
  /// tableau state entangles with q.
  void entanglement_component(std::size_t q, std::vector<bool>& out) const;

  sim::CliffordTableau kernel_;
  std::vector<bool> top_;
  std::vector<SignBit> clbits_;
};

}  // namespace qcgen::qasm::lint::abstract
