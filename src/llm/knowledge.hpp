#pragma once
// Knowledge-state model of the simulated code LLM.
//
// The paper's causal story decomposes model capability into three axes:
//   * syntax skill        — produces parseable, well-formed programs
//   * API recency         — avoids deprecated/removed imports (the
//                           dominant error class, Sec V-D)
//   * semantic knowledge  — knows how each algorithm is structured,
//                           per algorithm (base models know basics, not
//                           advanced topics; Sec III-B)
// Fine-tuning, RAG, CoT and SCoT act on different axes with different
// strengths; all constants live in knowledge.cpp and are calibrated so
// the evaluation reproduces the paper's accuracy ordering and deltas.

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "llm/tasks.hpp"

namespace qcgen::llm {

/// Per-algorithm semantic knowledge: a dense table over AlgorithmId with
/// presence bits, so copying a knowledge state allocates nothing. An
/// absent id (or one outside the enum) reads 0.0; operator[] marks its
/// id present, as a map's operator[] would insert it.
class SemanticTable {
 public:
  double& operator[](AlgorithmId id) {
    const auto i = static_cast<std::size_t>(id);
    require(i < kAlgorithmCount, "SemanticTable: algorithm id out of range");
    present_ |= std::uint32_t{1} << i;
    return values_[i];
  }
  /// The id's value, 0.0 when absent.
  double get(AlgorithmId id) const noexcept {
    return contains(id) ? values_[static_cast<std::size_t>(id)] : 0.0;
  }
  bool contains(AlgorithmId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return i < kAlgorithmCount && (present_ >> i & 1U) != 0;
  }
  /// Number of present ids.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(present_));
  }
  /// Calls `visit(id, value&)` for every present id in ascending order.
  template <typename Visit>
  void for_each(Visit&& visit) {
    visit_present(*this, visit);
  }
  template <typename Visit>
  void for_each(Visit&& visit) const {
    visit_present(*this, visit);
  }

 private:
  static_assert(kAlgorithmCount <= 32, "presence bits fit one word");
  template <typename Table, typename Visit>
  static void visit_present(Table& table, Visit& visit) {
    for (std::size_t i = 0; i < kAlgorithmCount; ++i) {
      if ((table.present_ >> i & 1U) != 0) {
        visit(static_cast<AlgorithmId>(i), table.values_[i]);
      }
    }
  }
  std::array<double, kAlgorithmCount> values_{};
  std::uint32_t present_ = 0;
};

/// Capability state of a (simulated) model, all axes in [0, 1].
struct KnowledgeState {
  double syntax_skill = 0.0;
  double api_recency = 0.0;
  SemanticTable semantic;

  double semantic_for(AlgorithmId id) const;
  /// Pushes an axis value towards 1 by `fraction` of the remaining gap.
  static double boost(double value, double fraction);
};

/// Base-model profiles (paper Table I rows).
enum class ModelProfile {
  kStarCoder3B,   ///< main evaluation model (Sec V-A)
  kStarCoder7B,   ///< Table I QHE rows
  kGranite20B,    ///< IBM Qiskit Assistant reference model
};

std::string_view model_profile_name(ModelProfile profile);

/// Pre-training knowledge of a base model (before any fine-tuning).
KnowledgeState base_knowledge(ModelProfile profile);

/// Stable content digest of a knowledge state — the cache layer's
/// "knowledge version". Generation cache keys fold it in, so any change
/// to the model's capability axes invalidates by key divergence instead
/// of explicit flushes.
std::uint64_t knowledge_digest(const KnowledgeState& knowledge) noexcept;

/// Per-operation fault probabilities derived from a knowledge state.
struct FaultRates {
  double deprecated_import = 0.0;
  double unknown_import = 0.0;
  double parse_corruption = 0.0;
  double gate_misuse = 0.0;      ///< unknown gate / arity / params
  double index_error = 0.0;
  double missing_measure = 0.0;
  double semantic_slip = 0.0;    ///< wrong detail despite a correct plan
};

/// Maps knowledge to fault rates. `syntax_difficulty` scales the
/// syntactic channels (the QHE suite stresses library-specific syntax
/// harder than the semantic suite; Sec V-C).
FaultRates fault_rates(const KnowledgeState& knowledge, AlgorithmId algorithm,
                       double syntax_difficulty = 1.0);

}  // namespace qcgen::llm
