#pragma once
// Static resource analysis: a forward dataflow pass over the flattened
// op list (ProgramFacts) computing what running the program costs —
// gate-class histogram (T-count, two-qubit volume, non-Clifford sites),
// ASAP/ALAP layered depth and T-depth via interval scheduling, per-qubit
// lifetime intervals with idle-gap detection, and ancilla
// allocate/uncompute/release classification. Everything is derived
// without executing a simulator, which is what lets the QEC agent turn
// it into a fault-tolerance ResourcePlan and the resource.* lint passes
// flag wasteful structure with certified fix-its.
//
// Conditional regions are costed as intervals: an op whose guard chain
// the abstract interpreter proves unreachable is excluded outright, a
// certainly-reachable op counts in both bounds, and a maybe-reachable op
// (unknown guard, or no abstract facts available) counts only in the
// upper bound. The interval lattice (CostRange) therefore brackets every
// concrete execution's cost.
//
// Scheduling semantics (mirrored by the exact-enumeration cross-check in
// test_resource_analysis):
//  - gate / in-range measure / reset ops occupy one layer at
//    1 + max(level of every in-range operand qubit, level of every
//    in-range guard clbit); a measure also raises its target clbit's
//    level to that layer (classical feed-forward edge).
//  - measure_all acts on all qubits (and clbits 0..n-1) only when
//    num_clbits >= num_qubits, mirroring ProgramFacts event recording;
//    an ineffective measure_all is a no-op for counts and scheduling.
//  - barrier synchronises every qubit level (and T-level) to the running
//    maximum but occupies no layer and is excluded from all counts.
//  - T-depth uses the standard parallel recurrence: levels propagate
//    through every scheduled op, incrementing only on t/tdg. Classical
//    edges are ignored for T-depth.
//  - ALAP layers come from the mirrored reverse pass against the ASAP
//    depth; slack = alap - asap, zero on the critical path.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "qasm/ast.hpp"
#include "qasm/lint/facts.hpp"

namespace qcgen::qasm::lint::abstract {
struct AbstractFacts;
}  // namespace qcgen::qasm::lint::abstract

namespace qcgen::qasm::analysis {

/// Interval cost: `min` counts only certainly-executed ops, `max` adds
/// the maybe-reachable ones. min == max when the program has no
/// conditional structure (or every guard was decided).
struct CostRange {
  std::size_t min = 0;
  std::size_t max = 0;

  void add(bool certain) {
    if (certain) ++min;
    ++max;
  }
  friend bool operator==(const CostRange&, const CostRange&) = default;
};

/// Per-op scheduling record, parallel to CircuitFacts::ops.
struct OpResource {
  /// Participates in counts and the upper-bound schedule (false for
  /// barriers, unreachable ops, ineffective measure_all).
  bool counted = false;
  /// Certainly executed (unguarded, or every guard proven true).
  bool certain = false;
  /// 1-based ASAP/ALAP layer in the upper-bound schedule; 0 when the op
  /// is not scheduled (not counted, or no in-range operands).
  std::size_t asap_layer = 0;
  std::size_t alap_layer = 0;

  std::size_t slack() const {
    return alap_layer >= asap_layer ? alap_layer - asap_layer : 0;
  }
};

/// Lifetime interval of one declared qubit, over the upper-bound
/// schedule (barrier events excluded).
struct QubitLifetime {
  enum class Role {
    kUnused,           ///< no (reachable) op ever touches the qubit
    kData,             ///< measured: its value is part of the output
    kAncillaReleased,  ///< scratch, uncomputed: last op is an unguarded
                       ///< reset, so the qubit ends in |0> and is free
                       ///< for reuse
    kAncillaDirty,     ///< scratch never measured and never released
  };
  Role role = Role::kUnused;
  bool used = false;
  bool measured = false;
  /// True iff the last non-barrier event is a certain, unguarded reset.
  bool released = false;
  /// Flat-op indices of the first/last non-barrier event (valid iff
  /// used) and of the releasing reset (valid iff released).
  std::size_t first_op = 0;
  std::size_t last_op = 0;
  std::size_t release_op = 0;
  /// ASAP layers of the first/last event (0 when unscheduled).
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  /// Distinct layers the qubit is busy in, idle layers inside its
  /// [first_layer, last_layer] span, and the longest idle stretch
  /// between two consecutive events.
  std::size_t active_layers = 0;
  std::size_t idle_layers = 0;
  std::size_t max_idle_gap = 0;
};

/// A (min, max) qubit pair coupled by one or more two-qubit gates.
struct TwoQubitPair {
  std::size_t a = 0;
  std::size_t b = 0;
  /// Occurrences in the upper-bound schedule.
  std::size_t count = 0;

  friend bool operator==(const TwoQubitPair&, const TwoQubitPair&) = default;
};

/// Resource lattice for one circuit.
struct CircuitResources {
  const CircuitDecl* circuit = nullptr;
  /// False when the circuit is unanalyzable (ProgramFacts bail-out);
  /// every other field is then zero/empty.
  bool computed = false;

  /// Gate statements per canonical mnemonic (raw name for unresolvable
  /// gates). Statements, not qubit-touches: one ccx counts once.
  std::map<std::string, CostRange> histogram;
  /// Non-barrier executable ops (gates + effective measures + resets).
  CostRange total_ops;
  CostRange gate_count;
  CostRange t_count;         ///< explicit t/tdg gates
  CostRange ccx_count;
  CostRange rotation_count;  ///< non-Clifford parametrised gates
  CostRange two_qubit_count;
  CostRange multi_qubit_count;  ///< 3-qubit gates (ccx, cswap)
  CostRange non_clifford_count;
  /// Measurement events on in-range qubits (an effective measure_all
  /// contributes num_qubits).
  CostRange measure_count;
  CostRange reset_count;

  CostRange depth;
  CostRange t_depth;

  /// Parallel to CircuitFacts::ops.
  std::vector<OpResource> ops;
  /// Ops per ASAP layer of the upper-bound schedule; index 0 unused.
  std::vector<std::size_t> layer_width;
  /// One entry per declared qubit.
  std::vector<QubitLifetime> qubits;
  std::size_t qubits_used = 0;
  /// Distinct coupled pairs, sorted by (a, b) with a < b.
  std::vector<TwoQubitPair> two_qubit_pairs;
};

/// Resource facts for every circuit of a program.
struct ResourceFacts {
  /// Parallel to ProgramFacts::circuits.
  std::vector<CircuitResources> circuits;

  /// `abstract` refines conditional costs with reachability verdicts;
  /// pass nullptr to treat every guarded op as maybe-reachable.
  /// `reachability_free`, when given, must be compute(facts) of the same
  /// facts: a circuit that reachability cannot change (no guarded op, or
  /// no abstract facts) is moved out of it instead of being recomputed.
  static ResourceFacts compute(
      const lint::ProgramFacts& facts,
      const lint::abstract::AbstractFacts* abstract = nullptr,
      ResourceFacts* reachability_free = nullptr);
};

/// Flat scalar digest of one circuit's resources — the program-side
/// input to the QEC agent's ResourcePlan (upper bounds throughout).
struct ResourceSummary {
  bool computed = false;
  std::size_t qubits = 0;  ///< declared
  std::size_t qubits_used = 0;
  std::size_t gate_count = 0;
  std::size_t t_count = 0;
  std::size_t ccx_count = 0;
  std::size_t rotation_count = 0;
  std::size_t two_qubit_count = 0;
  std::size_t non_clifford_count = 0;
  std::size_t measure_count = 0;
  std::size_t depth = 0;
  std::size_t t_depth = 0;
  std::vector<TwoQubitPair> two_qubit_pairs;
};

ResourceSummary summarize(const CircuitResources& resources);

/// Summary of the program's entry circuit, read from `resources`
/// (computed over `facts`); empty when the program has no analyzable
/// entry.
ResourceSummary summarize_entry(const lint::ProgramFacts& facts,
                                const ResourceFacts& resources);

/// Reachability-free resources of the program's entry circuit.
/// Convenience for callers outside the lint driver (benches).
ResourceSummary summarize_entry(const Program& program);

}  // namespace qcgen::qasm::analysis
