#include "sim/gates.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

#include "common/error.hpp"

namespace qcgen::sim {

namespace {

constexpr GateKind kAllKinds[] = {
    GateKind::kI,      GateKind::kX,     GateKind::kY,      GateKind::kZ,
    GateKind::kH,      GateKind::kS,     GateKind::kSdg,    GateKind::kT,
    GateKind::kTdg,    GateKind::kSX,    GateKind::kRX,     GateKind::kRY,
    GateKind::kRZ,     GateKind::kPhase, GateKind::kU,      GateKind::kCX,
    GateKind::kCY,     GateKind::kCZ,    GateKind::kCPhase, GateKind::kSwap,
    GateKind::kCCX,    GateKind::kCSwap, GateKind::kRZZ,    GateKind::kMeasure,
    GateKind::kReset,  GateKind::kBarrier,
};

/// Indexed by GateKind, in declaration order (= kAllKinds order).
constexpr GateInfo kInfo[] = {
    {"id", 1, 0, true, true},  // kI
    {"x", 1, 0, true, true},  // kX
    {"y", 1, 0, true, true},  // kY
    {"z", 1, 0, true, true},  // kZ
    {"h", 1, 0, true, true},  // kH
    {"s", 1, 0, true, true},  // kS
    {"sdg", 1, 0, true, true},  // kSdg
    {"t", 1, 0, true, false},  // kT
    {"tdg", 1, 0, true, false},  // kTdg
    {"sx", 1, 0, true, true},  // kSX
    {"rx", 1, 1, true, false},  // kRX
    {"ry", 1, 1, true, false},  // kRY
    {"rz", 1, 1, true, false},  // kRZ
    {"p", 1, 1, true, false},  // kPhase
    {"u", 1, 3, true, false},  // kU
    {"cx", 2, 0, true, true},  // kCX
    {"cy", 2, 0, true, true},  // kCY
    {"cz", 2, 0, true, true},  // kCZ
    {"cp", 2, 1, true, false},  // kCPhase
    {"swap", 2, 0, true, true},  // kSwap
    {"ccx", 3, 0, true, false},  // kCCX
    {"cswap", 3, 0, true, false},  // kCSwap
    {"rzz", 2, 1, true, false},  // kRZZ
    {"measure", 1, 0, false, false},  // kMeasure
    {"reset", 1, 0, false, false},  // kReset
    {"barrier", -1, 0, false, false},  // kBarrier
};
static_assert(std::size(kInfo) == std::size(kAllKinds));
static_assert([] {
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    if (static_cast<std::size_t>(kAllKinds[i]) != i) return false;
  }
  return true;
}());

const GateInfo& info_for(GateKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= std::size(kInfo)) {
    throw std::out_of_range("gate_info: unknown gate kind");
  }
  return kInfo[index];
}

/// Hashes std::string and std::string_view alike, so name lookups need
/// no temporary std::string.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};

}  // namespace

const GateInfo& gate_info(GateKind kind) { return info_for(kind); }

std::string_view gate_name(GateKind kind) { return info_for(kind).name; }

bool parse_gate_name(std::string_view name, GateKind& out) {
  static const auto* kByName = [] {
    auto* m =
        new std::unordered_map<std::string, GateKind, NameHash, std::equal_to<>>();
    for (GateKind k : kAllKinds) (*m)[std::string(gate_name(k))] = k;
    // Qiskit aliases encountered in scraped corpora.
    (*m)["cnot"] = GateKind::kCX;
    (*m)["toffoli"] = GateKind::kCCX;
    (*m)["fredkin"] = GateKind::kCSwap;
    (*m)["u3"] = GateKind::kU;
    (*m)["phase"] = GateKind::kPhase;
    return m;
  }();
  auto it = kByName->find(name);
  if (it == kByName->end()) return false;
  out = it->second;
  return true;
}

Matrix2 gate_matrix_1q(GateKind kind, std::span<const double> params) {
  const GateInfo& gi = gate_info(kind);
  if (!gi.unitary || gi.num_qubits != 1) {
    throw InvalidArgumentError("gate_matrix_1q: not a single-qubit unitary: " +
                               std::string(gi.name));
  }
  if (static_cast<int>(params.size()) != gi.num_params) {
    throw InvalidArgumentError("gate_matrix_1q: wrong parameter count for " +
                               std::string(gi.name));
  }
  const Complex i{0.0, 1.0};
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::kI: return {1, 0, 0, 1};
    case GateKind::kX: return {0, 1, 1, 0};
    case GateKind::kY: return {0, -i, i, 0};
    case GateKind::kZ: return {1, 0, 0, -1};
    case GateKind::kH:
      return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
    case GateKind::kS: return {1, 0, 0, i};
    case GateKind::kSdg: return {1, 0, 0, -i};
    case GateKind::kT: return {1, 0, 0, std::exp(i * (std::numbers::pi / 4))};
    case GateKind::kTdg:
      return {1, 0, 0, std::exp(-i * (std::numbers::pi / 4))};
    case GateKind::kSX: {
      const Complex a = Complex(0.5, 0.5), b = Complex(0.5, -0.5);
      return {a, b, b, a};
    }
    case GateKind::kRX: {
      const double th = params[0] / 2;
      return {std::cos(th), -i * std::sin(th), -i * std::sin(th), std::cos(th)};
    }
    case GateKind::kRY: {
      const double th = params[0] / 2;
      return {std::cos(th), -std::sin(th), std::sin(th), std::cos(th)};
    }
    case GateKind::kRZ: {
      const double th = params[0] / 2;
      return {std::exp(-i * th), 0, 0, std::exp(i * th)};
    }
    case GateKind::kPhase:
      return {1, 0, 0, std::exp(i * params[0])};
    case GateKind::kU: {
      const double th = params[0], phi = params[1], lam = params[2];
      return {std::cos(th / 2), -std::exp(i * lam) * std::sin(th / 2),
              std::exp(i * phi) * std::sin(th / 2),
              std::exp(i * (phi + lam)) * std::cos(th / 2)};
    }
    default:
      throw InvalidArgumentError("gate_matrix_1q: unreachable");
  }
}

Matrix2 controlled_target_matrix(GateKind kind,
                                 std::span<const double> params) {
  switch (kind) {
    case GateKind::kCX: return gate_matrix_1q(GateKind::kX, {});
    case GateKind::kCY: return gate_matrix_1q(GateKind::kY, {});
    case GateKind::kCZ: return gate_matrix_1q(GateKind::kZ, {});
    case GateKind::kCPhase:
      return gate_matrix_1q(GateKind::kPhase, params);
    default:
      throw InvalidArgumentError(
          "controlled_target_matrix: not a controlled pair gate: " +
          std::string(gate_name(kind)));
  }
}

std::span<const GateKind> all_gate_kinds() { return kAllKinds; }

}  // namespace qcgen::sim
