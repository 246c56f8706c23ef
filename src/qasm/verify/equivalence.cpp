#include "qasm/verify/equivalence.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "sim/clifford.hpp"
#include "sim/gates.hpp"
#include "sim/statevector.hpp"

namespace qcgen::qasm::verify {

std::string_view verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kProvedEqual: return "proved-equal";
    case Verdict::kProvedDifferent: return "proved-different";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

std::string_view method_name(Method method) {
  switch (method) {
    case Method::kNone: return "none";
    case Method::kStructural: return "structural";
    case Method::kClifford: return "clifford";
    case Method::kPathSum: return "path-sum";
    case Method::kExactSim: return "exact-sim";
  }
  return "?";
}

std::string_view contract_name(Contract contract) {
  switch (contract) {
    case Contract::kDistribution: return "distribution";
    case Contract::kUnitary: return "unitary";
  }
  return "?";
}

namespace {

using sim::CliffordTableau;
using sim::GateKind;
using sim::Operation;
using sim::SignBit;

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr double kHalfPi = 1.5707963267948966192313216916398;
constexpr double kAngleEps = 1e-9;

/// Angle folded into [0, 2*pi).
double mod_2pi(double a) {
  a = std::fmod(a, kTwoPi);
  if (a < 0) a += kTwoPi;
  if (a > kTwoPi - kAngleEps) a = 0.0;
  return a;
}

/// Nearest multiple of pi/2, or -1 when the angle is not one.
int quarter_turns(double a) {
  a = mod_2pi(a);
  for (int k = 0; k < 4; ++k) {
    if (std::abs(a - k * kHalfPi) < kAngleEps) return k;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Dynamic bit vector over GF(2), used for parity masks over classical
// bits and path-sum variables.

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t bits) : bits_(bits), words_((bits + 63) / 64) {}

  std::size_t size() const noexcept { return bits_; }
  bool test(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1u;
  }
  void flip(std::size_t i) { words_[i / 64] ^= std::uint64_t{1} << (i % 64); }
  void set(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  bool any() const {
    return std::any_of(words_.begin(), words_.end(),
                       [](std::uint64_t w) { return w != 0; });
  }
  /// Index of the lowest set bit; size() when empty.
  std::size_t lowest() const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) {
        return w * 64 +
               static_cast<std::size_t>(std::countr_zero(words_[w]));
      }
    }
    return bits_;
  }
  BitVec& operator^=(const BitVec& other) {
    ensure(bits_ == other.bits_, "BitVec: size mismatch");
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w] ^= other.words_[w];
    }
    return *this;
  }
  friend bool operator==(const BitVec&, const BitVec&) = default;

  /// Render the set bits as e.g. "c0^c3".
  std::string to_string(char prefix) const {
    std::string out;
    for (std::size_t i = 0; i < bits_; ++i) {
      if (!test(i)) continue;
      if (!out.empty()) out += '^';
      out += prefix;
      out += std::to_string(i);
    }
    return out.empty() ? "(empty)" : out;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// Normalization: barriers and identities dropped, parameterised diagonal
// gates with Clifford angles rewritten to their Clifford kind (sound up
// to global phase, which neither contract observes).

struct NormCircuit {
  std::size_t num_qubits = 0;
  std::size_t num_clbits = 0;
  std::vector<Operation> ops;
  bool has_condition = false;
  bool has_measure = false;
  bool has_reset = false;
};

void push_gate(NormCircuit& out, GateKind kind, std::vector<std::size_t> qubits,
               std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  out.ops.push_back(std::move(op));
}

/// Rewrites a parameterised gate whose angle lands on a Clifford value;
/// returns true when it produced (possibly zero) normalized ops.
bool normalize_param_gate(NormCircuit& out, const Operation& op) {
  const double theta = op.params.empty() ? 0.0 : op.params[0];
  const int k = quarter_turns(theta);
  if (k < 0) return false;
  const std::size_t q0 = op.qubits[0];
  switch (op.kind) {
    case GateKind::kRZ:
    case GateKind::kPhase: {
      static constexpr GateKind kTable[4] = {GateKind::kI, GateKind::kS,
                                             GateKind::kZ, GateKind::kSdg};
      if (k != 0) push_gate(out, kTable[k], {q0});
      return true;
    }
    case GateKind::kRX: {
      if (k == 0) return true;
      if (k == 1) { push_gate(out, GateKind::kSX, {q0}); return true; }
      if (k == 2) { push_gate(out, GateKind::kX, {q0}); return true; }
      // rx(3pi/2) = rx(pi/2) rx(pi) (same-axis rotations commute).
      push_gate(out, GateKind::kX, {q0});
      push_gate(out, GateKind::kSX, {q0});
      return true;
    }
    case GateKind::kRY: {
      if (k == 0) return true;
      if (k == 2) { push_gate(out, GateKind::kY, {q0}); return true; }
      if (k == 1) {
        // RY(pi/2) = H Z exactly (Z first).
        push_gate(out, GateKind::kZ, {q0});
        push_gate(out, GateKind::kH, {q0});
        return true;
      }
      // RY(3pi/2) = (H Z)^dagger = Z H (H first).
      push_gate(out, GateKind::kH, {q0});
      push_gate(out, GateKind::kZ, {q0});
      return true;
    }
    case GateKind::kCPhase: {
      if (k == 0) return true;
      if (k == 2) {
        push_gate(out, GateKind::kCZ, {op.qubits[0], op.qubits[1]});
        return true;
      }
      return false;  // controlled-S is not Clifford
    }
    case GateKind::kRZZ: {
      if (k == 0) return true;
      if (k == 2) {
        // rzz(pi) = (Z x Z) up to global phase.
        push_gate(out, GateKind::kZ, {op.qubits[0]});
        push_gate(out, GateKind::kZ, {op.qubits[1]});
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

NormCircuit normalize(const sim::Circuit& circuit) {
  NormCircuit out;
  out.num_qubits = circuit.num_qubits();
  out.num_clbits = circuit.num_clbits();
  for (const Operation& op : circuit.operations()) {
    if (op.condition.has_value()) {
      out.has_condition = true;
      out.ops.push_back(op);
      continue;
    }
    switch (op.kind) {
      case GateKind::kBarrier:
      case GateKind::kI:
        continue;
      case GateKind::kMeasure:
        out.has_measure = true;
        out.ops.push_back(op);
        continue;
      case GateKind::kReset:
        out.has_reset = true;
        out.ops.push_back(op);
        continue;
      case GateKind::kRZ:
      case GateKind::kPhase:
      case GateKind::kRX:
      case GateKind::kRY:
      case GateKind::kCPhase:
      case GateKind::kRZZ:
        if (normalize_param_gate(out, op)) continue;
        out.ops.push_back(op);
        continue;
      default:
        out.ops.push_back(op);
        continue;
    }
  }
  return out;
}

/// Applies a (normalized) Clifford unitary to the shared kernel.
/// Precondition: gate_info(op.kind).clifford.
void apply_clifford(CliffordTableau& tab, const Operation& op) {
  switch (op.kind) {
    case GateKind::kX: tab.x(op.qubits[0]); return;
    case GateKind::kY: tab.y(op.qubits[0]); return;
    case GateKind::kZ: tab.z(op.qubits[0]); return;
    case GateKind::kH: tab.h(op.qubits[0]); return;
    case GateKind::kS: tab.s(op.qubits[0]); return;
    case GateKind::kSdg: tab.sdg(op.qubits[0]); return;
    case GateKind::kSX: tab.sx(op.qubits[0]); return;
    case GateKind::kCX: tab.cx(op.qubits[0], op.qubits[1]); return;
    case GateKind::kCY: tab.cy(op.qubits[0], op.qubits[1]); return;
    case GateKind::kCZ: tab.cz(op.qubits[0], op.qubits[1]); return;
    case GateKind::kSwap: tab.swap(op.qubits[0], op.qubits[1]); return;
    default:
      throw InternalError("verify: apply_clifford on non-Clifford op");
  }
}

// ---------------------------------------------------------------------------
// Canonical outcome form (distribution contract).
//
// For circuits in either decidable fragment the classical register is
// uniformly distributed over an affine subspace of GF(2)^num_clbits.
// The subspace is represented by its full parity-constraint system in
// reduced row echelon form: rows (mask, parity) meaning
// xor_{c in mask} b_c == parity, sorted by pivot column. Two circuits
// have identical output distributions iff their forms are identical.

struct Constraint {
  BitVec mask;
  bool parity = false;
  friend bool operator==(const Constraint&, const Constraint&) = default;
};

struct OutcomeForm {
  bool ok = false;
  Method engine = Method::kNone;
  std::string reason;  ///< why the fragment was left (ok == false)
  std::size_t num_clbits = 0;
  std::vector<Constraint> constraints;
  friend bool operator==(const OutcomeForm& a, const OutcomeForm& b) {
    return a.num_clbits == b.num_clbits && a.constraints == b.constraints;
  }
};

/// Gaussian elimination to canonical RREF over the clbit columns.
/// The input system is always consistent (it describes a nonempty
/// support), so a zero mask must carry parity 0.
std::vector<Constraint> canonicalize_constraints(
    std::vector<Constraint> rows, std::size_t num_clbits) {
  std::vector<std::size_t> pivot_of_row;
  std::vector<Constraint> reduced;
  for (std::size_t col = 0; col < num_clbits; ++col) {
    std::size_t found = rows.size();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].mask.test(col)) { found = r; break; }
    }
    if (found == rows.size()) continue;
    Constraint pivot = std::move(rows[found]);
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(found));
    for (Constraint& other : rows) {
      if (other.mask.test(col)) {
        other.mask ^= pivot.mask;
        other.parity ^= pivot.parity;
      }
    }
    for (Constraint& other : reduced) {
      if (other.mask.test(col)) {
        other.mask ^= pivot.mask;
        other.parity ^= pivot.parity;
      }
    }
    reduced.push_back(std::move(pivot));
  }
  for (const Constraint& leftover : rows) {
    ensure(!leftover.parity, "verify: inconsistent outcome constraints");
  }
  // Pivot columns were visited in ascending order, so `reduced` is
  // already sorted by pivot; RREF of a fixed affine subspace is unique.
  return reduced;
}

/// Renders "parity(c0^c2) = 1".
std::string constraint_string(const Constraint& c) {
  return "parity(" + c.mask.to_string('c') + ") = " + (c.parity ? "1" : "0");
}

/// First difference between two canonical forms, as a counterexample
/// parity observable fixed by one side and violated by the other.
std::string form_counterexample(const OutcomeForm& lhs,
                                const OutcomeForm& rhs) {
  const std::size_t n = std::min(lhs.constraints.size(),
                                 rhs.constraints.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lhs.constraints[i] == rhs.constraints[i])) {
      return "lhs fixes " + constraint_string(lhs.constraints[i]) +
             " but rhs fixes " + constraint_string(rhs.constraints[i]);
    }
  }
  if (lhs.constraints.size() > n) {
    return "lhs fixes " + constraint_string(lhs.constraints[n]) +
           " but rhs leaves it free";
  }
  if (rhs.constraints.size() > n) {
    return "rhs fixes " + constraint_string(rhs.constraints[n]) +
           " but lhs leaves it free";
  }
  return "classical register width differs";
}

/// Clifford engine: evolve the stabilizer tableau, resolving
/// deterministic measurements/resets immediately (the three-valued
/// kernel proves determinism) and deferring random measurements to the
/// end, where Gaussian elimination over the stabilizer group extracts
/// the affine outcome subspace.
OutcomeForm clifford_outcome_form(const NormCircuit& circuit) {
  OutcomeForm form;
  form.engine = Method::kClifford;
  form.num_clbits = circuit.num_clbits;
  if (circuit.has_condition) {
    form.reason = "classically-conditioned operation";
    return form;
  }
  const std::size_t n = circuit.num_qubits;
  CliffordTableau state(n);
  std::vector<bool> clbit_written(circuit.num_clbits, false);
  std::vector<bool> retired(n, false);  // deferred-measured qubits
  std::vector<std::pair<std::size_t, std::size_t>> deferred;  // (qubit, clbit)
  std::vector<Constraint> rows;

  const auto touches_retired = [&](const Operation& op) {
    return std::any_of(op.qubits.begin(), op.qubits.end(),
                       [&](std::size_t q) { return retired[q]; });
  };

  for (const Operation& op : circuit.ops) {
    if (touches_retired(op)) {
      form.reason = "operation on a qubit after its (random) measurement";
      return form;
    }
    if (op.kind == GateKind::kMeasure) {
      const std::size_t q = op.qubits[0];
      const std::size_t c = *op.clbit;
      if (clbit_written[c]) {
        form.reason = "classical bit written more than once";
        return form;
      }
      clbit_written[c] = true;
      if (state.is_deterministic(q)) {
        const SignBit sign = state.deterministic_sign(q);
        ensure(sim::sign_known(sign), "verify: unknown deterministic sign");
        Constraint constraint{BitVec(circuit.num_clbits),
                              sign == SignBit::kOne};
        constraint.mask.set(c);
        rows.push_back(std::move(constraint));
      } else {
        deferred.emplace_back(q, c);
        retired[q] = true;
      }
      continue;
    }
    if (op.kind == GateKind::kReset) {
      const std::size_t q = op.qubits[0];
      if (!state.is_deterministic(q)) {
        form.reason = "reset with a random measurement outcome";
        return form;
      }
      const SignBit sign = state.deterministic_sign(q);
      ensure(sim::sign_known(sign), "verify: unknown deterministic sign");
      if (sign == SignBit::kOne) state.x(q);
      continue;
    }
    if (!sim::gate_info(op.kind).clifford) {
      form.reason = "non-Clifford gate " +
                    std::string(sim::gate_name(op.kind));
      return form;
    }
    apply_clifford(state, op);
  }

  if (!deferred.empty()) {
    // Gaussian elimination over the stabilizer rows: eliminate every
    // x column, then the z columns of unmeasured qubits. Surviving
    // rows are Z-strings supported on the deferred qubits — the parity
    // constraints of the joint outcome distribution.
    CliffordTableau work(state);
    std::vector<bool> is_deferred(n, false);
    std::vector<std::size_t> clbit_of(n, 0);
    for (const auto& [q, c] : deferred) {
      is_deferred[q] = true;
      clbit_of[q] = c;
    }
    const std::size_t scratch = 2 * n;
    const auto swap_rows = [&](std::size_t a, std::size_t b) {
      if (a == b) return;
      work.row_copy(scratch, a);
      work.row_copy(a, b);
      work.row_copy(b, scratch);
    };
    // Column order: x bits, then z bits of unmeasured qubits.
    std::vector<std::pair<bool, std::size_t>> columns;  // (is_z, qubit)
    columns.reserve(2 * n);
    for (std::size_t q = 0; q < n; ++q) columns.emplace_back(false, q);
    for (std::size_t q = 0; q < n; ++q) {
      if (!is_deferred[q]) columns.emplace_back(true, q);
    }
    std::size_t pivot = n;
    for (const auto& [is_z, q] : columns) {
      const auto bit = [&](std::size_t row) {
        return is_z ? work.zbit(row, q) : work.xbit(row, q);
      };
      std::size_t found = 2 * n;
      for (std::size_t r = pivot; r < 2 * n; ++r) {
        if (bit(r)) { found = r; break; }
      }
      if (found == 2 * n) continue;
      swap_rows(found, pivot);
      for (std::size_t r = n; r < 2 * n; ++r) {
        if (r != pivot && bit(r)) work.rowsum(r, pivot);
      }
      ++pivot;
    }
    for (std::size_t r = pivot; r < 2 * n; ++r) {
      Constraint constraint{BitVec(circuit.num_clbits), false};
      for (std::size_t q = 0; q < n; ++q) {
        ensure(!work.xbit(r, q), "verify: elimination left an x bit");
        if (!work.zbit(r, q)) continue;
        ensure(is_deferred[q], "verify: constraint on unmeasured qubit");
        constraint.mask.set(clbit_of[q]);
      }
      const SignBit sign = work.row_sign(r);
      ensure(sim::sign_known(sign), "verify: unknown stabilizer sign");
      constraint.parity = sign == SignBit::kOne;
      rows.push_back(std::move(constraint));
    }
  }

  // Classical bits never written stay 0.
  for (std::size_t c = 0; c < circuit.num_clbits; ++c) {
    if (clbit_written[c]) continue;
    Constraint constraint{BitVec(circuit.num_clbits), false};
    constraint.mask.set(c);
    rows.push_back(std::move(constraint));
  }
  form.constraints =
      canonicalize_constraints(std::move(rows), circuit.num_clbits);
  form.ok = true;
  return form;
}

// ---------------------------------------------------------------------------
// Path-sum engine (distribution contract).
//
// Fragment: H only on a wire holding a constant (it introduces a fresh
// free variable), then linear-reversible gates (X/CX/CY/SWAP on wire
// values) and diagonal phase gates, which cannot shift probability
// because the wire map is injective — no two paths interfere. Each wire
// carries an affine function of the free variables; eliminating the
// variables from the measured wires leaves the affine outcome subspace.

struct WireFn {
  BitVec vars;
  bool constant = false;
  friend bool operator==(const WireFn&, const WireFn&) = default;
};

OutcomeForm pathsum_outcome_form(const NormCircuit& circuit) {
  OutcomeForm form;
  form.engine = Method::kPathSum;
  form.num_clbits = circuit.num_clbits;
  if (circuit.has_condition) {
    form.reason = "classically-conditioned operation";
    return form;
  }
  const std::size_t n = circuit.num_qubits;
  // Every H introduces one variable; reserve capacity for the worst case
  // (one per op) so masks never need resizing.
  const std::size_t max_vars = circuit.ops.size() + 1;
  std::vector<WireFn> wires(n, WireFn{BitVec(max_vars), false});
  std::size_t num_vars = 0;
  std::vector<bool> clbit_written(circuit.num_clbits, false);
  std::vector<bool> retired(n, false);
  std::vector<std::pair<std::size_t, std::size_t>> deferred;  // (qubit, clbit)
  std::vector<Constraint> direct;

  for (const Operation& op : circuit.ops) {
    if (std::any_of(op.qubits.begin(), op.qubits.end(),
                    [&](std::size_t q) { return retired[q]; })) {
      form.reason = "operation on a qubit after its (random) measurement";
      return form;
    }
    switch (op.kind) {
      case GateKind::kMeasure: {
        const std::size_t q = op.qubits[0];
        const std::size_t c = *op.clbit;
        if (clbit_written[c]) {
          form.reason = "classical bit written more than once";
          return form;
        }
        clbit_written[c] = true;
        if (wires[q].vars.any()) {
          deferred.emplace_back(q, c);
          retired[q] = true;
        } else {
          Constraint constraint{BitVec(circuit.num_clbits),
                                wires[q].constant};
          constraint.mask.set(c);
          direct.push_back(std::move(constraint));
        }
        break;
      }
      case GateKind::kReset: {
        const std::size_t q = op.qubits[0];
        if (wires[q].vars.any()) {
          form.reason = "reset of a wire in superposition";
          return form;
        }
        wires[q].constant = false;
        break;
      }
      case GateKind::kH: {
        const std::size_t q = op.qubits[0];
        if (wires[q].vars.any()) {
          form.reason = "H on a wire already in superposition";
          return form;
        }
        wires[q] = WireFn{BitVec(max_vars), false};
        wires[q].vars.set(num_vars++);
        break;
      }
      case GateKind::kX:
      case GateKind::kY:  // wire flip; the i phases never interfere
        wires[op.qubits[0]].constant = !wires[op.qubits[0]].constant;
        break;
      case GateKind::kCX:
      case GateKind::kCY:
        wires[op.qubits[1]].vars ^= wires[op.qubits[0]].vars;
        wires[op.qubits[1]].constant ^= wires[op.qubits[0]].constant;
        break;
      case GateKind::kSwap:
        std::swap(wires[op.qubits[0]], wires[op.qubits[1]]);
        break;
      // Diagonal gates only contribute phases, which the injective wire
      // map keeps unobservable in the computational basis.
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
        break;
      default:
        form.reason = "gate outside the path-sum fragment: " +
                      std::string(sim::gate_name(op.kind));
        return form;
    }
  }

  // Eliminate the free variables from the deferred wire functions; rows
  // with no variable left are parity constraints over the clbits.
  struct AugRow {
    BitVec vars;
    BitVec clbits;
    bool parity = false;
  };
  std::vector<AugRow> aug;
  aug.reserve(deferred.size());
  for (const auto& [q, c] : deferred) {
    AugRow row{wires[q].vars, BitVec(circuit.num_clbits),
               wires[q].constant};
    row.clbits.set(c);
    aug.push_back(std::move(row));
  }
  for (std::size_t v = 0; v < num_vars; ++v) {
    std::size_t found = aug.size();
    for (std::size_t r = 0; r < aug.size(); ++r) {
      if (aug[r].vars.test(v)) { found = r; break; }
    }
    if (found == aug.size()) continue;
    for (std::size_t r = 0; r < aug.size(); ++r) {
      if (r != found && aug[r].vars.test(v)) {
        aug[r].vars ^= aug[found].vars;
        aug[r].clbits ^= aug[found].clbits;
        aug[r].parity ^= aug[found].parity;
      }
    }
    aug.erase(aug.begin() + static_cast<std::ptrdiff_t>(found));
  }
  std::vector<Constraint> rows = std::move(direct);
  for (AugRow& row : aug) {
    ensure(!row.vars.any(), "verify: variable elimination incomplete");
    rows.push_back(Constraint{std::move(row.clbits), row.parity});
  }
  for (std::size_t c = 0; c < circuit.num_clbits; ++c) {
    if (clbit_written[c]) continue;
    Constraint constraint{BitVec(circuit.num_clbits), false};
    constraint.mask.set(c);
    rows.push_back(std::move(constraint));
  }
  form.constraints =
      canonicalize_constraints(std::move(rows), circuit.num_clbits);
  form.ok = true;
  return form;
}

OutcomeForm outcome_form(const NormCircuit& circuit, const Options& options) {
  trace::TraceSpan span("verify.canonicalize");
  OutcomeForm clifford;
  if (options.clifford) {
    clifford = clifford_outcome_form(circuit);
    if (clifford.ok) return clifford;
  }
  if (options.path_sum) {
    OutcomeForm path = pathsum_outcome_form(circuit);
    if (path.ok) return path;
    if (!options.clifford) return path;
    clifford.reason += "; " + path.reason;
  }
  return clifford;
}

// ---------------------------------------------------------------------------
// Unitary contract engines (measurement-free circuits).

/// Renders the conjugation row `row` of a tableau as "+XZ_Z".
std::string row_string(const CliffordTableau& tab, std::size_t row) {
  std::string out;
  const SignBit sign = tab.row_sign(row);
  out += sign == SignBit::kOne ? '-'
                               : (sign == SignBit::kZero ? '+' : '?');
  for (std::size_t q = 0; q < tab.num_qubits(); ++q) {
    const bool x = tab.xbit(row, q);
    const bool z = tab.zbit(row, q);
    out += x ? (z ? 'Y' : 'X') : (z ? 'Z' : '_');
  }
  return out;
}

struct UnitaryVerdict {
  bool in_fragment = false;
  std::string reason;
  bool equal = false;
  std::string counterexample;
};

/// Compares the Clifford group elements by their conjugation action on
/// every X_i and Z_i generator (rows 0..2n-1 of a fresh tableau).
/// Exact up to global phase.
UnitaryVerdict clifford_unitary_compare(const NormCircuit& lhs,
                                        const NormCircuit& rhs) {
  UnitaryVerdict verdict;
  const auto in_fragment = [](const NormCircuit& c) {
    return !c.has_condition && !c.has_measure && !c.has_reset &&
           std::all_of(c.ops.begin(), c.ops.end(), [](const Operation& op) {
             return sim::gate_info(op.kind).clifford;
           });
  };
  if (!in_fragment(lhs) || !in_fragment(rhs)) {
    verdict.reason = "non-Clifford unitary";
    return verdict;
  }
  verdict.in_fragment = true;
  const std::size_t n = lhs.num_qubits;
  trace::TraceSpan span("verify.canonicalize");
  CliffordTableau a(n);
  CliffordTableau b(n);
  for (const Operation& op : lhs.ops) apply_clifford(a, op);
  for (const Operation& op : rhs.ops) apply_clifford(b, op);
  for (std::size_t row = 0; row < 2 * n; ++row) {
    bool same = a.row_sign(row) == b.row_sign(row);
    for (std::size_t q = 0; same && q < n; ++q) {
      same = a.xbit(row, q) == b.xbit(row, q) &&
             a.zbit(row, q) == b.zbit(row, q);
    }
    if (!same) {
      const bool is_z = row >= n;
      const std::size_t q = is_z ? row - n : row;
      verdict.counterexample =
          "conjugation of " + std::string(is_z ? "Z" : "X") +
          std::to_string(q) + " differs: lhs " + row_string(a, row) +
          ", rhs " + row_string(b, row);
      return verdict;
    }
  }
  verdict.equal = true;
  return verdict;
}

/// Phase-polynomial canonical form for linear-reversible + diagonal
/// unitaries (no H): wire functions over the n inputs plus a parity ->
/// angle map. Wire functions determine the basis permutation uniquely;
/// the phase polynomial is reduced so that pi-multiples collapse onto a
/// single parity (using (-1)^{f} (-1)^{g} = (-1)^{f^g}).
struct PhasePoly {
  bool in_fragment = false;
  std::string reason;
  std::vector<WireFn> wires;
  std::map<std::vector<std::uint64_t>, double> angles;  // mask words -> angle
  BitVec pi_mask;  // single parity carrying the odd pi-multiples

  void add_phase(const WireFn& f, double theta, std::size_t num_bits) {
    theta = mod_2pi(f.constant ? -theta : theta);
    if (!f.vars.any()) return;  // constant phase = global
    std::vector<std::uint64_t> key(num_bits, 0);
    for (std::size_t i = 0; i < f.vars.size(); ++i) {
      if (f.vars.test(i)) key[i] = 1;
    }
    double& slot = angles[std::move(key)];
    slot = mod_2pi(slot + theta);
  }
};

PhasePoly pathsum_unitary_form(const NormCircuit& circuit) {
  PhasePoly poly;
  const std::size_t n = circuit.num_qubits;
  if (circuit.has_condition || circuit.has_measure || circuit.has_reset) {
    poly.reason = "non-unitary operation";
    return poly;
  }
  poly.wires.assign(n, WireFn{BitVec(n), false});
  for (std::size_t q = 0; q < n; ++q) poly.wires[q].vars.set(q);
  poly.pi_mask = BitVec(n);
  const auto xor_fn = [](const WireFn& f, const WireFn& g) {
    WireFn out = f;
    out.vars ^= g.vars;
    out.constant ^= g.constant;
    return out;
  };
  for (const Operation& op : circuit.ops) {
    WireFn* f = &poly.wires[op.qubits[0]];
    WireFn* g = op.qubits.size() > 1 ? &poly.wires[op.qubits[1]] : nullptr;
    switch (op.kind) {
      case GateKind::kX:
        f->constant = !f->constant;
        break;
      case GateKind::kY:  // Y = e^{i pi/2} e^{i pi a} X on a wire
        poly.add_phase(*f, kHalfPi * 2, n);
        f->constant = !f->constant;
        break;
      case GateKind::kZ: poly.add_phase(*f, 2 * kHalfPi, n); break;
      case GateKind::kS: poly.add_phase(*f, kHalfPi, n); break;
      case GateKind::kSdg: poly.add_phase(*f, -kHalfPi, n); break;
      case GateKind::kT: poly.add_phase(*f, kHalfPi / 2, n); break;
      case GateKind::kTdg: poly.add_phase(*f, -kHalfPi / 2, n); break;
      case GateKind::kRZ:
      case GateKind::kPhase:
        poly.add_phase(*f, op.params[0], n);
        break;
      case GateKind::kCX:
        *g = xor_fn(*g, *f);
        break;
      case GateKind::kSwap:
        std::swap(*f, *g);
        break;
      case GateKind::kCZ:
      case GateKind::kCPhase: {
        // theta * f * g = (theta/2)(f + g - (f ^ g))
        const double theta =
            op.kind == GateKind::kCZ ? 2 * kHalfPi : op.params[0];
        poly.add_phase(*f, theta / 2, n);
        poly.add_phase(*g, theta / 2, n);
        poly.add_phase(xor_fn(*f, *g), -theta / 2, n);
        break;
      }
      case GateKind::kRZZ:
        poly.add_phase(xor_fn(*f, *g), op.params[0], n);
        break;
      default:
        poly.reason = "gate outside the phase-polynomial fragment: " +
                      std::string(sim::gate_name(op.kind));
        return poly;
    }
  }
  // Split each angle into a pi-multiple and a residue in [0, pi).
  // (-1)-valued parities multiply ((-1)^f (-1)^g = (-1)^{f^g}), so the
  // odd pi parts fold into one canonical parity mask — this absorbs the
  // classic non-uniqueness pi(X_a + X_b + X_{a^b}) == 0 (mod 2pi).
  const double pi = 2 * kHalfPi;
  for (auto it = poly.angles.begin(); it != poly.angles.end();) {
    const double a = it->second;  // already folded into [0, 2pi)
    long k = static_cast<long>(std::floor(a / pi));
    double residue = a - static_cast<double>(k) * pi;
    if (residue > pi - kAngleEps) {
      residue = 0.0;
      ++k;
    }
    if (std::abs(residue) < kAngleEps) residue = 0.0;
    if (k % 2 != 0) {
      for (std::size_t i = 0; i < it->first.size(); ++i) {
        if (it->first[i]) poly.pi_mask.flip(i);
      }
    }
    if (residue == 0.0) {
      it = poly.angles.erase(it);
    } else {
      it->second = residue;
      ++it;
    }
  }
  poly.in_fragment = true;
  return poly;
}

bool phase_polys_match(const PhasePoly& a, const PhasePoly& b) {
  if (!(a.pi_mask == b.pi_mask)) return false;
  if (a.angles.size() != b.angles.size()) return false;
  for (const auto& [key, angle] : a.angles) {
    const auto it = b.angles.find(key);
    if (it == b.angles.end()) return false;
    const double diff = mod_2pi(angle - it->second);
    if (diff > kAngleEps && diff < kTwoPi - kAngleEps) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Budgeted exact-simulation fallback. Still a proof — the reference
// simulator is exact — but exponential, so it refuses beyond the budget.

std::size_t branch_op_count(const sim::Circuit& circuit) {
  std::size_t count = 0;
  for (const Operation& op : circuit.operations()) {
    if (op.kind == GateKind::kMeasure || op.kind == GateKind::kReset) {
      ++count;
    }
  }
  return count;
}

bool within_sim_budget(const sim::Circuit& circuit, const Options& options,
                       std::string& reason) {
  if (circuit.num_qubits() > options.max_sim_qubits) {
    reason = "simulation budget: " + std::to_string(circuit.num_qubits()) +
             " qubits > max " + std::to_string(options.max_sim_qubits);
    return false;
  }
  if (circuit.requires_trajectories() &&
      branch_op_count(circuit) > options.max_sim_branch_ops) {
    reason = "simulation budget: " + std::to_string(branch_op_count(circuit)) +
             " branching ops > max " +
             std::to_string(options.max_sim_branch_ops);
    return false;
  }
  return true;
}

Certificate simulate_distributions(const sim::Circuit& lhs,
                                   const sim::Circuit& rhs,
                                   const Options& options) {
  Certificate cert;
  cert.contract = Contract::kDistribution;
  cert.method = Method::kExactSim;
  const sim::Distribution da = sim::exact_distribution(lhs);
  const sim::Distribution db = sim::exact_distribution(rhs);
  for (const auto& [key, pa] : da) {
    const auto it = db.find(key);
    const double pb = it == db.end() ? 0.0 : it->second;
    if (std::abs(pa - pb) > options.tolerance) {
      cert.verdict = Verdict::kProvedDifferent;
      cert.counterexample = "P[" + key + "] = " + std::to_string(pa) +
                            " on lhs, " + std::to_string(pb) + " on rhs";
      return cert;
    }
  }
  for (const auto& [key, pb] : db) {
    if (da.find(key) == da.end() && pb > options.tolerance) {
      cert.verdict = Verdict::kProvedDifferent;
      cert.counterexample = "P[" + key + "] = 0 on lhs, " +
                            std::to_string(pb) + " on rhs";
      return cert;
    }
  }
  cert.verdict = Verdict::kProvedEqual;
  return cert;
}

/// Full unitary comparison by streaming the 2^n columns U|x> and V|x>
/// and comparing them under one shared global phase, fixed at the
/// largest entry of the first column. Sound and complete (up to
/// floating-point tolerance) but exponential — gated by the budget.
Certificate simulate_unitaries(const sim::Circuit& lhs,
                               const sim::Circuit& rhs,
                               const Options& options) {
  Certificate cert;
  cert.contract = Contract::kUnitary;
  cert.method = Method::kExactSim;
  const std::size_t n = lhs.num_qubits();
  if (n == 0) {  // only barriers possible: identity on nothing
    cert.verdict = Verdict::kProvedEqual;
    return cert;
  }
  const double tol = std::max(options.tolerance, 1e-9);
  sim::Complex phase = 1.0;  // the e^{i phi} with U = e^{i phi} V
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
    sim::Circuit column_l(n, lhs.num_clbits());
    sim::Circuit column_r(n, rhs.num_clbits());
    for (std::size_t q = 0; q < n; ++q) {
      if ((x >> q) & 1u) {
        column_l.x(q);
        column_r.x(q);
      }
    }
    column_l.compose(lhs);
    column_r.compose(rhs);
    const sim::StateVector a = sim::run_statevector(column_l);
    const sim::StateVector b = sim::run_statevector(column_r);
    if (x == 0) {
      std::size_t imax = 0;
      double best = 0.0;
      for (std::size_t i = 0; i < a.dim(); ++i) {
        const double mag = std::abs(a.amplitudes()[i]);
        if (mag > best) {
          best = mag;
          imax = i;
        }
      }
      const sim::Complex bi = b.amplitudes()[imax];
      if (std::abs(bi) < tol) {
        cert.verdict = Verdict::kProvedDifferent;
        cert.counterexample =
            "|<" + std::to_string(imax) + "|U|0>| = " + std::to_string(best) +
            " on lhs but ~0 on rhs";
        return cert;
      }
      const sim::Complex ratio = a.amplitudes()[imax] / bi;
      phase = ratio / std::abs(ratio);
    }
    for (std::size_t i = 0; i < a.dim(); ++i) {
      const sim::Complex diff = a.amplitudes()[i] - phase * b.amplitudes()[i];
      if (std::abs(diff) > tol) {
        cert.verdict = Verdict::kProvedDifferent;
        cert.counterexample =
            "matrix entry <" + std::to_string(i) + "|U|" + std::to_string(x) +
            "> differs by " + std::to_string(std::abs(diff)) +
            " (global phase fixed at column 0)";
        return cert;
      }
    }
  }
  cert.verdict = Verdict::kProvedEqual;
  return cert;
}

void record_metrics(const Certificate& cert) {
  switch (cert.verdict) {
    case Verdict::kProvedEqual:
      trace::Metrics::counter("verify.proved_equal");
      break;
    case Verdict::kProvedDifferent:
      trace::Metrics::counter("verify.proved_different");
      break;
    case Verdict::kUnknown:
      trace::Metrics::counter("verify.unknown");
      break;
  }
  trace::Metrics::counter("verify.method." +
                          std::string(method_name(cert.method)));
}

}  // namespace

Certificate check_equivalence(const sim::Circuit& lhs, const sim::Circuit& rhs,
                              const Options& options) {
  trace::TraceSpan span("verify.prove");
  Certificate cert;
  // One circuit object on both sides (an unchanged repair hits the same
  // analysis entry): normalizing it twice would only find the two op
  // streams identical. A NaN angle compares unequal to itself, so such a
  // circuit takes the full path, as it would on two copies.
  if (&lhs == &rhs && options.structural &&
      std::none_of(lhs.operations().begin(), lhs.operations().end(),
                   [](const Operation& op) {
                     return std::any_of(op.params.begin(), op.params.end(),
                                        [](double p) { return std::isnan(p); });
                   })) {
    // normalize() sets has_measure for unconditioned measurements only.
    const bool measures = std::any_of(
        lhs.operations().begin(), lhs.operations().end(),
        [](const Operation& op) {
          return !op.condition.has_value() && op.kind == GateKind::kMeasure;
        });
    cert.contract = measures ? Contract::kDistribution : Contract::kUnitary;
    cert.verdict = Verdict::kProvedEqual;
    cert.method = Method::kStructural;
    record_metrics(cert);
    return cert;
  }
  const NormCircuit a = normalize(lhs);
  const NormCircuit b = normalize(rhs);
  cert.contract = (a.has_measure || b.has_measure) ? Contract::kDistribution
                                                   : Contract::kUnitary;

  // Structural fast path: identical normalized op streams.
  if (options.structural && a.num_qubits == b.num_qubits &&
      a.num_clbits == b.num_clbits && a.ops == b.ops) {
    cert.verdict = Verdict::kProvedEqual;
    cert.method = Method::kStructural;
    record_metrics(cert);
    return cert;
  }

  if (cert.contract == Contract::kDistribution) {
    if (a.has_measure != b.has_measure) {
      cert.verdict = Verdict::kProvedDifferent;
      cert.method = Method::kStructural;
      cert.counterexample = a.has_measure
                                ? "only lhs writes the classical register"
                                : "only rhs writes the classical register";
      record_metrics(cert);
      return cert;
    }
    if (a.num_clbits != b.num_clbits) {
      cert.verdict = Verdict::kProvedDifferent;
      cert.method = Method::kStructural;
      cert.counterexample =
          "classical register width differs: " + std::to_string(a.num_clbits) +
          " vs " + std::to_string(b.num_clbits);
      record_metrics(cert);
      return cert;
    }
    const OutcomeForm fa = outcome_form(a, options);
    const OutcomeForm fb = outcome_form(b, options);
    if (fa.ok && fb.ok) {
      cert.method = (fa.engine == Method::kClifford &&
                     fb.engine == Method::kClifford)
                        ? Method::kClifford
                        : Method::kPathSum;
      if (fa == fb) {
        cert.verdict = Verdict::kProvedEqual;
      } else {
        cert.verdict = Verdict::kProvedDifferent;
        cert.counterexample = form_counterexample(fa, fb);
      }
      record_metrics(cert);
      return cert;
    }
    cert.note = !fa.ok ? "lhs: " + fa.reason : "rhs: " + fb.reason;
    if (options.simulation_fallback) {
      std::string budget;
      if (within_sim_budget(lhs, options, budget) &&
          within_sim_budget(rhs, options, budget)) {
        cert = simulate_distributions(lhs, rhs, options);
        record_metrics(cert);
        return cert;
      }
      cert.note += "; " + budget;
    }
    record_metrics(cert);
    return cert;
  }

  // Unitary contract (measurement-free circuits).
  if (a.num_qubits != b.num_qubits) {
    cert.note = "measurement-free circuits over different qubit counts";
    record_metrics(cert);
    return cert;
  }
  if (options.clifford) {
    const UnitaryVerdict clifford = clifford_unitary_compare(a, b);
    if (clifford.in_fragment) {
      cert.method = Method::kClifford;
      cert.verdict = clifford.equal ? Verdict::kProvedEqual
                                    : Verdict::kProvedDifferent;
      cert.counterexample = clifford.counterexample;
      record_metrics(cert);
      return cert;
    }
    cert.note = clifford.reason;
  }
  if (options.path_sum) {
    trace::TraceSpan canon_span("verify.canonicalize");
    const PhasePoly pa = pathsum_unitary_form(a);
    const PhasePoly pb = pathsum_unitary_form(b);
    if (pa.in_fragment && pb.in_fragment) {
      cert.method = Method::kPathSum;
      if (!(pa.wires == pb.wires)) {
        // Differing wire maps permute basis states differently: a
        // definite unitary difference.
        std::size_t q = 0;
        while (q < pa.wires.size() &&
               pa.wires[q].vars == pb.wires[q].vars &&
               pa.wires[q].constant == pb.wires[q].constant) {
          ++q;
        }
        cert.verdict = Verdict::kProvedDifferent;
        cert.counterexample =
            "wire " + std::to_string(q) + " computes " +
            pa.wires[q].vars.to_string('x') +
            (pa.wires[q].constant ? "^1" : "") + " on lhs but " +
            pb.wires[q].vars.to_string('x') +
            (pb.wires[q].constant ? "^1" : "") + " on rhs";
        record_metrics(cert);
        return cert;
      }
      if (phase_polys_match(pa, pb)) {
        cert.verdict = Verdict::kProvedEqual;
        record_metrics(cert);
        return cert;
      }
      // Phase-polynomial representations over parities are not unique
      // modulo pi-identities beyond the one we canonicalize, so a
      // mismatch is not a proof of difference — fall through to the
      // simulation probes.
      cert.method = Method::kNone;
      cert.note = "phase polynomials differ (possibly equivalent forms)";
    } else if (cert.note.empty()) {
      cert.note = !pa.in_fragment ? "lhs: " + pa.reason : "rhs: " + pb.reason;
    }
  }
  if (options.simulation_fallback) {
    if (a.has_reset || b.has_reset || a.has_condition || b.has_condition) {
      // A measurement-free circuit with reset/conditions is a channel,
      // not a unitary; nothing sound to compare against.
      cert.note += "; non-unitary (reset/condition) measurement-free circuit";
      record_metrics(cert);
      return cert;
    }
    std::string budget;
    if (within_sim_budget(lhs, options, budget) &&
        within_sim_budget(rhs, options, budget)) {
      cert = simulate_unitaries(lhs, rhs, options);
      record_metrics(cert);
      return cert;
    }
    cert.note += "; " + budget;
  }
  record_metrics(cert);
  return cert;
}

}  // namespace qcgen::qasm::verify
