#pragma once
// Circuit-level syndrome extraction: runs the ancilla-based stabilizer
// measurement schedule of a surface code directly on the tableau
// simulator, with Pauli faults injected between rounds. Used to validate
// the phenomenological model against a real stabilizer-circuit execution
// and to render Fig 2-style demonstrations.

#include <cstddef>

#include "common/rng.hpp"
#include "qec/pauli_frame.hpp"
#include "qec/surface_code.hpp"

namespace qcgen::qec {

/// Runs the syndrome circuit on a tableau with Pauli faults injected on
/// data qubits between rounds (depolarising p) and ancilla measurement
/// flips (q), returning the syndrome history in the same layout as the
/// phenomenological sampler. `prepare_logical_one` applies logical X
/// first so the protected qubit starts in |1>_L (the Fig 2 workload).
SyndromeHistory run_syndrome_circuit(const SurfaceCode& code,
                                     std::size_t rounds, double data_error,
                                     double meas_error,
                                     bool prepare_logical_one, Rng& rng);

}  // namespace qcgen::qec
