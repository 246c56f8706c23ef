#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qcgen::sim {

namespace {
constexpr std::size_t kMaxQubits = 24;

std::string bits_to_string(const std::vector<bool>& clbits) {
  // Qiskit convention: clbit 0 is the rightmost character.
  std::string s(clbits.size(), '0');
  for (std::size_t i = 0; i < clbits.size(); ++i) {
    if (clbits[i]) s[clbits.size() - 1 - i] = '1';
  }
  return s;
}
}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 1, "StateVector requires at least 1 qubit");
  if (num_qubits > kMaxQubits) {
    throw InvalidArgumentError("StateVector supports at most " +
                               std::to_string(kMaxQubits) + " qubits");
  }
  amps_.assign(1ULL << num_qubits, Complex(0.0, 0.0));
  amps_[0] = Complex(1.0, 0.0);
}

Complex StateVector::amplitude(std::uint64_t basis_state) const {
  require(basis_state < amps_.size(), "basis state out of range");
  return amps_[basis_state];
}

void StateVector::reset_all() {
  std::fill(amps_.begin(), amps_.end(), Complex(0.0, 0.0));
  amps_[0] = Complex(1.0, 0.0);
}

void StateVector::assign_amplitudes(std::vector<Complex> amps) {
  require(amps.size() == amps_.size(),
          "assign_amplitudes: dimension mismatch");
  amps_ = std::move(amps);
}

void StateVector::apply_1q(const Matrix2& u, std::size_t q) {
  require(q < num_qubits_, "apply_1q: qubit out of range");
  const std::uint64_t bit = 1ULL << q;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t i = 0; i < dim; ++i) {
    if (i & bit) continue;
    const Complex a0 = amps_[i];
    const Complex a1 = amps_[i | bit];
    amps_[i] = u[0] * a0 + u[1] * a1;
    amps_[i | bit] = u[2] * a0 + u[3] * a1;
  }
}

void StateVector::apply_controlled_1q(const Matrix2& u, std::size_t c,
                                      std::size_t t) {
  require(c < num_qubits_ && t < num_qubits_ && c != t,
          "apply_controlled_1q: bad qubit operands");
  const std::uint64_t cbit = 1ULL << c;
  const std::uint64_t tbit = 1ULL << t;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t i = 0; i < dim; ++i) {
    if (!(i & cbit) || (i & tbit)) continue;
    const Complex a0 = amps_[i];
    const Complex a1 = amps_[i | tbit];
    amps_[i] = u[0] * a0 + u[1] * a1;
    amps_[i | tbit] = u[2] * a0 + u[3] * a1;
  }
}

void StateVector::apply_cc_1q(const Matrix2& u, std::size_t c0, std::size_t c1,
                              std::size_t t) {
  require(c0 < num_qubits_ && c1 < num_qubits_ && t < num_qubits_,
          "apply_cc_1q: qubit out of range");
  require(c0 != c1 && c0 != t && c1 != t, "apply_cc_1q: duplicate operands");
  const std::uint64_t mask = (1ULL << c0) | (1ULL << c1);
  const std::uint64_t tbit = 1ULL << t;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t i = 0; i < dim; ++i) {
    if ((i & mask) != mask || (i & tbit)) continue;
    const Complex a0 = amps_[i];
    const Complex a1 = amps_[i | tbit];
    amps_[i] = u[0] * a0 + u[1] * a1;
    amps_[i | tbit] = u[2] * a0 + u[3] * a1;
  }
}

void StateVector::apply_swap(std::size_t a, std::size_t b) {
  require(a < num_qubits_ && b < num_qubits_ && a != b,
          "apply_swap: bad qubit operands");
  const std::uint64_t abit = 1ULL << a;
  const std::uint64_t bbit = 1ULL << b;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t i = 0; i < dim; ++i) {
    // Swap amplitude pairs where qubit a is 1 and qubit b is 0.
    if ((i & abit) && !(i & bbit)) {
      std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
    }
  }
}

void StateVector::apply_cswap(std::size_t c, std::size_t a, std::size_t b) {
  require(c < num_qubits_ && a < num_qubits_ && b < num_qubits_,
          "apply_cswap: qubit out of range");
  require(c != a && c != b && a != b, "apply_cswap: duplicate operands");
  const std::uint64_t cbit = 1ULL << c;
  const std::uint64_t abit = 1ULL << a;
  const std::uint64_t bbit = 1ULL << b;
  const std::uint64_t dim = amps_.size();
  for (std::uint64_t i = 0; i < dim; ++i) {
    if ((i & cbit) && (i & abit) && !(i & bbit)) {
      std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
    }
  }
}

void StateVector::apply_rzz(double theta, std::size_t a, std::size_t b) {
  require(a < num_qubits_ && b < num_qubits_ && a != b,
          "apply_rzz: bad qubit operands");
  const Complex i{0.0, 1.0};
  const Complex phase_minus = std::exp(-i * (theta / 2.0));
  const Complex phase_plus = std::exp(i * (theta / 2.0));
  const std::uint64_t abit = 1ULL << a;
  const std::uint64_t bbit = 1ULL << b;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    const bool za = s & abit;
    const bool zb = s & bbit;
    amps_[s] *= (za == zb) ? phase_minus : phase_plus;
  }
}

void StateVector::apply(const Operation& op) {
  const GateInfo& gi = gate_info(op.kind);
  switch (op.kind) {
    case GateKind::kBarrier:
      return;
    case GateKind::kMeasure:
    case GateKind::kReset:
      throw InvalidArgumentError(
          "StateVector::apply cannot execute measure/reset; use "
          "measure()/reset() with an Rng");
    case GateKind::kCX:
    case GateKind::kCY:
    case GateKind::kCZ:
    case GateKind::kCPhase:
      apply_controlled_1q(controlled_target_matrix(op.kind, op.params),
                          op.qubits[0], op.qubits[1]);
      return;
    case GateKind::kSwap:
      apply_swap(op.qubits[0], op.qubits[1]);
      return;
    case GateKind::kCCX:
      apply_cc_1q(gate_matrix_1q(GateKind::kX, {}), op.qubits[0], op.qubits[1],
                  op.qubits[2]);
      return;
    case GateKind::kCSwap:
      apply_cswap(op.qubits[0], op.qubits[1], op.qubits[2]);
      return;
    case GateKind::kRZZ:
      apply_rzz(op.params[0], op.qubits[0], op.qubits[1]);
      return;
    default:
      if (!gi.unitary || gi.num_qubits != 1) {
        throw InvalidArgumentError(
            "StateVector::apply: unsupported operation " +
            std::string(gi.name));
      }
      apply_1q(gate_matrix_1q(op.kind, op.params), op.qubits[0]);
      return;
  }
}

double StateVector::probability_one(std::size_t q) const {
  require(q < num_qubits_, "probability_one: qubit out of range");
  const std::uint64_t bit = 1ULL << q;
  double p = 0.0;
  for (std::uint64_t i = 0; i < amps_.size(); ++i) {
    if (i & bit) p += std::norm(amps_[i]);
  }
  return p;
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) p[i] = std::norm(amps_[i]);
  return p;
}

bool StateVector::measure(std::size_t q, Rng& rng) {
  const double p1 = probability_one(q);
  const bool outcome = rng.bernoulli(p1);
  const double keep_prob = outcome ? p1 : 1.0 - p1;
  const double scale =
      keep_prob > 1e-300 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  const std::uint64_t bit = 1ULL << q;
  for (std::uint64_t i = 0; i < amps_.size(); ++i) {
    const bool one = i & bit;
    if (one == outcome) {
      amps_[i] *= scale;
    } else {
      amps_[i] = Complex(0.0, 0.0);
    }
  }
  return outcome;
}

void StateVector::reset(std::size_t q, Rng& rng) {
  if (measure(q, rng)) {
    apply_1q(gate_matrix_1q(GateKind::kX, {}), q);
  }
}

double StateVector::norm() const {
  double n = 0.0;
  for (const Complex& a : amps_) n += std::norm(a);
  return std::sqrt(n);
}

namespace {

/// Runs one full trajectory of a circuit, returning the classical register.
std::vector<bool> run_trajectory(const Circuit& circuit, StateVector& state,
                                 Rng& rng) {
  state.reset_all();
  std::vector<bool> clbits(circuit.num_clbits(), false);
  for (const Operation& op : circuit.operations()) {
    if (op.condition && clbits[op.condition->clbit] != op.condition->value) {
      continue;
    }
    switch (op.kind) {
      case GateKind::kBarrier:
        break;
      case GateKind::kMeasure:
        clbits[*op.clbit] = state.measure(op.qubits[0], rng);
        break;
      case GateKind::kReset:
        state.reset(op.qubits[0], rng);
        break;
      default:
        state.apply(op);
    }
  }
  return clbits;
}

}  // namespace

Counts run_ideal(const Circuit& circuit, const RunOptions& options) {
  Counts counts;
  if (!circuit.has_measurements()) return counts;
  Rng rng(options.seed);

  if (circuit.requires_trajectories()) {
    StateVector state(circuit.num_qubits());
    for (std::uint64_t shot = 0; shot < options.shots; ++shot) {
      ++counts[bits_to_string(run_trajectory(circuit, state, rng))];
    }
    return counts;
  }

  // Fast path: evolve once, then sample the terminal measurements.
  StateVector state(circuit.num_qubits());
  std::vector<std::pair<std::size_t, std::size_t>> measurements;  // (q, c)
  for (const Operation& op : circuit.operations()) {
    if (op.kind == GateKind::kMeasure) {
      measurements.emplace_back(op.qubits[0], *op.clbit);
    } else if (op.kind != GateKind::kBarrier) {
      state.apply(op);
    }
  }
  const std::vector<double> probs = state.probabilities();
  std::vector<double> cdf(probs.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    cdf[i] = acc;
  }
  for (std::uint64_t shot = 0; shot < options.shots; ++shot) {
    const double x = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    const std::uint64_t basis =
        static_cast<std::uint64_t>(std::distance(cdf.begin(), it));
    std::vector<bool> clbits(circuit.num_clbits(), false);
    for (const auto& [q, c] : measurements) {
      clbits[c] = (basis >> q) & 1ULL;
    }
    ++counts[bits_to_string(clbits)];
  }
  return counts;
}

namespace {

/// Recursive branch enumeration for trajectory circuits: explores every
/// nonzero-probability measurement outcome path exactly.
void enumerate_branches(const Circuit& circuit, std::size_t op_index,
                        StateVector state, std::vector<bool> clbits,
                        double weight, Distribution& out) {
  constexpr double kPrune = 1e-12;
  const auto& ops = circuit.operations();
  for (std::size_t i = op_index; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (op.condition && clbits[op.condition->clbit] != op.condition->value) {
      continue;
    }
    switch (op.kind) {
      case GateKind::kBarrier:
        break;
      case GateKind::kMeasure:
      case GateKind::kReset: {
        const std::size_t q = op.qubits[0];
        const double p1 = state.probability_one(q);
        for (int outcome = 0; outcome < 2; ++outcome) {
          const double p = outcome ? p1 : 1.0 - p1;
          if (p * weight < kPrune) continue;
          // Project onto the outcome and renormalise.
          const std::uint64_t bit = 1ULL << q;
          const double scale = 1.0 / std::sqrt(p);
          std::vector<Complex> amps = state.amplitudes();
          for (std::uint64_t s = 0; s < amps.size(); ++s) {
            const bool one = s & bit;
            amps[s] = (one == static_cast<bool>(outcome))
                          ? amps[s] * scale
                          : Complex(0.0, 0.0);
          }
          StateVector projected(circuit.num_qubits());
          projected.assign_amplitudes(std::move(amps));
          std::vector<bool> next_clbits = clbits;
          if (op.kind == GateKind::kMeasure) {
            next_clbits[*op.clbit] = outcome != 0;
          } else if (outcome) {
            // Reset: flip the projected |1> component back to |0>.
            projected.apply_1q(gate_matrix_1q(GateKind::kX, {}), q);
          }
          enumerate_branches(circuit, i + 1, std::move(projected),
                             std::move(next_clbits), weight * p, out);
        }
        return;  // both branches handled recursively
      }
      default:
        state.apply(op);
    }
  }
  // Reached the end: record this branch.
  std::string key(circuit.num_clbits(), '0');
  for (std::size_t c = 0; c < clbits.size(); ++c) {
    if (clbits[c]) key[clbits.size() - 1 - c] = '1';
  }
  out[key] += weight;
}

}  // namespace

Distribution exact_distribution(const Circuit& circuit) {
  Distribution out;
  if (!circuit.has_measurements()) return out;
  if (circuit.requires_trajectories()) {
    enumerate_branches(circuit, 0, StateVector(circuit.num_qubits()),
                       std::vector<bool>(circuit.num_clbits(), false), 1.0,
                       out);
    return out;
  }
  StateVector state(circuit.num_qubits());
  std::vector<std::pair<std::size_t, std::size_t>> measurements;
  for (const Operation& op : circuit.operations()) {
    if (op.kind == GateKind::kMeasure) {
      measurements.emplace_back(op.qubits[0], *op.clbit);
    } else if (op.kind != GateKind::kBarrier) {
      state.apply(op);
    }
  }
  const std::vector<double> probs = state.probabilities();
  for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
    if (probs[basis] < 1e-15) continue;
    std::string key(circuit.num_clbits(), '0');
    for (const auto& [q, c] : measurements) {
      if ((basis >> q) & 1ULL) key[circuit.num_clbits() - 1 - c] = '1';
    }
    out[key] += probs[basis];
  }
  return out;
}

Distribution to_distribution(const Counts& counts) {
  Distribution out;
  double total = 0.0;
  for (const auto& [_, c] : counts) total += static_cast<double>(c);
  if (total <= 0.0) return out;
  for (const auto& [k, c] : counts) out[k] = static_cast<double>(c) / total;
  return out;
}

StateVector run_statevector(const Circuit& circuit) {
  require(!circuit.requires_trajectories(),
          "run_statevector: circuit requires trajectory execution");
  StateVector state(circuit.num_qubits());
  for (const Operation& op : circuit.operations()) {
    if (op.kind == GateKind::kMeasure || op.kind == GateKind::kBarrier) {
      continue;
    }
    state.apply(op);
  }
  return state;
}

}  // namespace qcgen::sim
