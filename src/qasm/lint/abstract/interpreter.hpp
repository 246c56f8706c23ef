#pragma once
// Abstract interpretation of QasmLite circuits over the stabilizer
// domain (see domain.hpp). The interpreter symbolically executes the
// flattened op list from ProgramFacts once per circuit and records one
// OpFact per op; the abstract.* lint passes then read those facts
// without re-running the analysis.
//
// Guard handling (the "join"): guards are evaluated three-valued
// against the abstract classical bits. A chain with a provably-false
// guard is unreachable and skipped; a chain with an unknown guard
// *may* run, so the op's effects are over-approximated by widening
// every qubit it touches (and topping every clbit it writes) — the
// branch-taken and branch-skipped states then agree on everything the
// domain still claims. Only certainly-reachable ops record claims.

#include <string>
#include <vector>

#include "qasm/language.hpp"
#include "qasm/lint/facts.hpp"
#include "sim/clifford.hpp"

namespace qcgen::qasm::lint::abstract {

/// Tableau rows are quadratic in register size; beyond these caps the
/// interpreter reports "not computed" and every abstract pass skips the
/// circuit (kMaxRegisterSize admits far larger declarations).
constexpr std::size_t kMaxAbstractQubits = 256;
constexpr std::size_t kMaxAbstractClbits = 65536;

/// What abstract interpretation proved about one flat op.
struct OpFact {
  enum class Reach {
    kRun,          ///< every guard provably true (or unguarded)
    kMaybe,        ///< some guard value unknown
    kUnreachable,  ///< some guard provably false
  };
  Reach reach = Reach::kRun;
  /// Outermost provably-false guard (set when reach == kUnreachable).
  const IfStmt* false_guard = nullptr;
  /// Measurement outcome proven constant (single measure: `outcome`;
  /// measure_all: `constant_bits` holds one '0'/'1' per qubit, c[0]
  /// first). Only set for certainly-reachable ops with known signs.
  bool has_outcome = false;
  sim::SignBit outcome = sim::SignBit::kUnknown;
  std::string constant_bits;
  /// Reset of a qubit provably already in |0>.
  bool redundant_reset = false;
  /// Controlled gate whose control `control_qubit` is provably |0>.
  bool trivial_control = false;
  std::size_t control_qubit = 0;
};

struct CircuitAbstractFacts {
  /// False when the circuit was skipped (unanalyzable or over the caps);
  /// `ops` is still sized parallel to CircuitFacts::ops.
  bool computed = false;
  std::vector<OpFact> ops;
};

struct AbstractFacts {
  /// Parallel to ProgramFacts::circuits.
  std::vector<CircuitAbstractFacts> circuits;

  static AbstractFacts compute(const ProgramFacts& facts);
};

}  // namespace qcgen::qasm::lint::abstract
