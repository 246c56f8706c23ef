#include "qasm/lint/abstract/domain.hpp"

#include "common/error.hpp"

namespace qcgen::qasm::lint::abstract {

using sim::CliffordTableau;
using sim::GateKind;

AbstractState::AbstractState(std::size_t num_qubits, std::size_t num_clbits)
    : kernel_(num_qubits),
      top_(num_qubits, false),
      clbits_(num_clbits, SignBit::kZero) {}

std::optional<SignBit> AbstractState::z_value(std::size_t q) const {
  if (top_[q] || !kernel_.is_deterministic(q)) return std::nullopt;
  return kernel_.deterministic_sign(q);
}

bool AbstractState::provably_zero(std::size_t q) const {
  return z_value(q) == SignBit::kZero;
}

bool AbstractState::clifford_appliable(GateKind kind) {
  switch (kind) {
    case GateKind::kI:
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
    case GateKind::kH:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kSX:
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCZ:
    case GateKind::kSwap:
      return true;
    default:
      return false;
  }
}

bool AbstractState::diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::kI:
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kSdg:
    case GateKind::kT:
    case GateKind::kTdg:
    case GateKind::kRZ:
    case GateKind::kPhase:
    case GateKind::kCZ:
    case GateKind::kCPhase:
    case GateKind::kRZZ:
      return true;
    default:
      return false;
  }
}

void AbstractState::apply_clifford(GateKind kind,
                                   std::span<const std::size_t> qs) {
  switch (kind) {
    case GateKind::kI: return;
    case GateKind::kX: kernel_.x(qs[0]); return;
    case GateKind::kY: kernel_.y(qs[0]); return;
    case GateKind::kZ: kernel_.z(qs[0]); return;
    case GateKind::kH: kernel_.h(qs[0]); return;
    case GateKind::kS: kernel_.s(qs[0]); return;
    case GateKind::kSdg: kernel_.sdg(qs[0]); return;
    case GateKind::kSX: kernel_.sx(qs[0]); return;
    case GateKind::kCX: kernel_.cx(qs[0], qs[1]); return;
    case GateKind::kCY: kernel_.cy(qs[0], qs[1]); return;
    case GateKind::kCZ: kernel_.cz(qs[0], qs[1]); return;
    case GateKind::kSwap: kernel_.swap(qs[0], qs[1]); return;
    default:
      throw InvalidArgumentError("AbstractState::apply_clifford: bad kind");
  }
}

SignBit AbstractState::measure(std::size_t q) {
  if (top_[q]) return SignBit::kUnknown;
  if (kernel_.is_deterministic(q)) {
    // Deterministic outcomes leave the state unchanged; no collapse.
    return kernel_.deterministic_sign(q);
  }
  // Random: collapse without choosing a branch. The fresh +/-Z_q
  // generator (and every row combined with the pivot during spreading)
  // carries an unknown sign, so entangled partners keep correlated
  // don't-know claims instead of fabricated determinism.
  kernel_.measure_with(q, SignBit::kUnknown);
  return SignBit::kUnknown;
}

void AbstractState::reset(std::size_t q) {
  const std::size_t n = kernel_.num_qubits();
  if (top_[q]) {
    // See the class comment: widen the tableau's entanglement partners
    // of q before erasing q's correlations, then re-concretize q.
    std::vector<bool> component(n, false);
    entanglement_component(q, component);
    for (std::size_t u = 0; u < n; ++u) {
      if (u != q && component[u]) top_[u] = true;
    }
    top_[q] = false;
  }
  if (kernel_.is_deterministic(q)) {
    const SignBit s = kernel_.deterministic_sign(q);
    if (s == SignBit::kZero) return;
    if (s == SignBit::kOne) {
      kernel_.x(q);
      return;
    }
    // Deterministic with untracked sign: q is a product |0>/|1>, we just
    // don't know which. Rotate to the X basis and post-select the |0>
    // branch — on a product qubit post-selection is state preparation,
    // and the rest of the register is untouched either way.
    kernel_.h(q);
    kernel_.measure_with(q, SignBit::kZero);
    return;
  }
  // Random: reset = measure (outcome b) then apply X^b. Track it with b
  // unknown: the collapse spreads unknown signs to the combined rows,
  // and the X^b conjugation flips every row anticommuting with X_q —
  // i.e. rows with z-support on q — by b. The pivot row's own sign b
  // cancels (b xor b), leaving q exactly in |0>.
  const CliffordTableau::MeasureResult m =
      kernel_.measure_with(q, SignBit::kUnknown);
  for (std::size_t row = 0; row < 2 * n; ++row) {
    if (kernel_.zbit(row, q)) kernel_.set_row_sign(row, SignBit::kUnknown);
  }
  kernel_.set_row_sign(m.pivot, SignBit::kZero);
}

void AbstractState::entanglement_component(std::size_t q,
                                           std::vector<bool>& out) const {
  const std::size_t n = kernel_.num_qubits();
  out.assign(n, false);
  out[q] = true;
  // Fixpoint over "stabilizer generator support" co-occurrence. If the
  // generators split into two support-disjoint subsets the state factors
  // across that split, so everything correlated with q stays inside its
  // component. Worst case O(n^2) row scans; the interpreter caps n.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t row = n; row < 2 * n; ++row) {
      bool touches = false;
      for (std::size_t u = 0; u < n && !touches; ++u) {
        touches = out[u] && (kernel_.xbit(row, u) || kernel_.zbit(row, u));
      }
      if (!touches) continue;
      for (std::size_t u = 0; u < n; ++u) {
        if (!out[u] && (kernel_.xbit(row, u) || kernel_.zbit(row, u))) {
          out[u] = true;
          changed = true;
        }
      }
    }
  }
}

}  // namespace qcgen::qasm::lint::abstract
