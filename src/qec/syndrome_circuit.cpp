#include "qec/syndrome_circuit.hpp"

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/tableau.hpp"

namespace qcgen::qec {

SyndromeHistory run_syndrome_circuit(const SurfaceCode& code,
                                     std::size_t rounds, double data_error,
                                     double meas_error,
                                     bool prepare_logical_one, Rng& rng) {
  require(rounds >= 1, "run_syndrome_circuit: rounds >= 1");
  const std::size_t num_data = code.num_data_qubits();
  const std::size_t num_anc = code.stabilizers().size();
  sim::Tableau tab(num_data + num_anc);

  SyndromeHistory history(num_data);
  if (prepare_logical_one) {
    for (std::size_t q : code.logical_x_support()) tab.x(q);
  }

  // Reference syndrome values from an initial noiseless extraction round
  // (all zero for |0>-basis preparations of this code, but computed
  // explicitly for robustness).
  std::vector<std::uint8_t> reference(num_anc, 0);
  const auto extract_round = [&](bool noisy,
                                 std::vector<std::uint8_t>& bits) {
    for (std::size_t s = 0; s < num_anc; ++s) {
      const Stabilizer& stab = code.stabilizers()[s];
      const std::size_t anc = num_data + s;
      tab.reset(anc, rng);
      if (stab.type == PauliType::kX) {
        tab.h(anc);
        for (std::size_t q : stab.data_qubits) tab.cx(anc, q);
        tab.h(anc);
      } else {
        for (std::size_t q : stab.data_qubits) tab.cx(q, anc);
      }
      bool bit = tab.measure(anc, rng);
      if (noisy && rng.bernoulli(meas_error)) bit = !bit;
      bits[s] = static_cast<std::uint8_t>(bit);
    }
  };
  extract_round(/*noisy=*/false, reference);

  const auto& x_idx = code.stabilizer_indices(PauliType::kX);
  const auto& z_idx = code.stabilizer_indices(PauliType::kZ);
  std::vector<std::uint8_t> bits(num_anc, 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    // Data noise between rounds; also track the injected frame so the
    // caller can compute residuals exactly as in the phenomenological
    // model.
    for (std::size_t q = 0; q < num_data; ++q) {
      if (!rng.bernoulli(data_error)) continue;
      switch (rng.uniform_int(static_cast<std::uint64_t>(3))) {
        case 0:
          tab.x(q);
          history.frame.x[q] ^= 1;
          break;
        case 1:
          tab.y(q);
          history.frame.x[q] ^= 1;
          history.frame.z[q] ^= 1;
          break;
        default:
          tab.z(q);
          history.frame.z[q] ^= 1;
          break;
      }
    }
    extract_round(/*noisy=*/true, bits);
    Syndrome syn;
    syn.x.resize(x_idx.size());
    syn.z.resize(z_idx.size());
    for (std::size_t pos = 0; pos < x_idx.size(); ++pos) {
      syn.x[pos] = bits[x_idx[pos]] ^ reference[x_idx[pos]];
    }
    for (std::size_t pos = 0; pos < z_idx.size(); ++pos) {
      syn.z[pos] = bits[z_idx[pos]] ^ reference[z_idx[pos]];
    }
    history.rounds.push_back(std::move(syn));
  }
  // Final noiseless round.
  extract_round(/*noisy=*/false, bits);
  {
    Syndrome syn;
    syn.x.resize(x_idx.size());
    syn.z.resize(z_idx.size());
    for (std::size_t pos = 0; pos < x_idx.size(); ++pos) {
      syn.x[pos] = bits[x_idx[pos]] ^ reference[x_idx[pos]];
    }
    for (std::size_t pos = 0; pos < z_idx.size(); ++pos) {
      syn.z[pos] = bits[z_idx[pos]] ^ reference[z_idx[pos]];
    }
    history.rounds.push_back(std::move(syn));
  }
  return history;
}

}  // namespace qcgen::qec
