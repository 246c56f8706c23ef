#pragma once
// Quantum code-generation task taxonomy.
//
// Mirrors the paper's three-tier prompt suite (Sec III-B): basic circuit
// construction, intermediate well-known algorithms (Shor, Grover), and
// advanced topics (teleportation, quantum walk, annealing) that a base
// model is expected to know little about.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qcgen::llm {

/// Difficulty tier (paper Sec III-B; suite mix 47% / 24% / 29%).
enum class Tier { kBasic, kIntermediate, kAdvanced };

std::string_view tier_name(Tier tier);

/// The algorithms/workloads covered by the task suite.
enum class AlgorithmId {
  // Basic tier: syntax-focused circuit construction.
  kBellPair,
  kGhz,
  kSuperposition,       // uniform superposition over n qubits
  kSingleQubitRotation, // prepare RY(theta)|0> and measure
  kBitflipEncoding,     // 3-qubit repetition encode + measure
  kRandomNumber,        // n-qubit quantum RNG
  kSwapTest,            // swap-test overlap estimation
  kPhaseKickback,       // phase-kickback demonstration
  // Intermediate tier: canonical algorithms.
  kDeutschJozsa,
  kBernsteinVazirani,
  kGrover,
  kQft,
  kShorPeriodFinding,   // a = 7, N = 15 textbook instance
  // Advanced tier: topics beyond common training corpora.
  kTeleportation,
  kQuantumWalk,
  kQuantumAnnealing,    // trotterised Ising anneal
  kGhzParityOracle,     // parity oracle + interference readout
  kInverseQft,
};

/// Number of AlgorithmId values (they are dense from 0).
inline constexpr std::size_t kAlgorithmCount =
    static_cast<std::size_t>(AlgorithmId::kInverseQft) + 1;

std::string_view algorithm_name(AlgorithmId id);
Tier algorithm_tier(AlgorithmId id);
std::vector<AlgorithmId> all_algorithms();

/// One concrete generation task: an algorithm plus integer/real params.
struct TaskSpec {
  AlgorithmId algorithm = AlgorithmId::kBellPair;
  std::map<std::string, double> params;

  /// Convenience accessors with defaults.
  double param(const std::string& key, double fallback) const;
  int iparam(const std::string& key, int fallback) const;

  /// Stable identifier like "grover(n=3,marked=5)".
  std::string id() const;
};

/// Natural-language prompt text for a task (what the "user" asks).
std::string prompt_text(const TaskSpec& task);

}  // namespace qcgen::llm
