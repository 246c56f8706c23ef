#include "llm/knowledge.hpp"

#include <algorithm>

#include "common/cache/hash.hpp"
#include "common/error.hpp"

namespace qcgen::llm {

double KnowledgeState::semantic_for(AlgorithmId id) const {
  return semantic.get(id);
}

double KnowledgeState::boost(double value, double fraction) {
  require(fraction >= -1.0 && fraction <= 1.0,
          "KnowledgeState::boost: fraction in [-1,1]");
  if (fraction >= 0.0) return value + (1.0 - value) * fraction;
  return value * (1.0 + fraction);
}

std::string_view model_profile_name(ModelProfile profile) {
  switch (profile) {
    case ModelProfile::kStarCoder3B: return "starcoder-3b";
    case ModelProfile::kStarCoder7B: return "starcoder2-7b";
    case ModelProfile::kGranite20B: return "granite-20b-code";
  }
  return "?";
}

KnowledgeState base_knowledge(ModelProfile profile) {
  // Semantic priors per tier: base code models know textbook basics,
  // some canonical algorithms, and almost nothing about the advanced
  // topics the suite stresses (paper Sec III-B).
  double syntax = 0.0, api = 0.0;
  double sem_basic = 0.0, sem_inter = 0.0, sem_adv = 0.0;
  switch (profile) {
    case ModelProfile::kStarCoder3B:
      syntax = 0.45; api = 0.30;
      sem_basic = 0.62; sem_inter = 0.22; sem_adv = 0.05;
      break;
    case ModelProfile::kStarCoder7B:
      syntax = 0.52; api = 0.33;
      sem_basic = 0.66; sem_inter = 0.26; sem_adv = 0.07;
      break;
    case ModelProfile::kGranite20B:
      // The IBM reference model ships Qiskit-tuned (Table I reports it
      // with its QK fine-tuning); its base state is already strong.
      syntax = 0.83; api = 0.80;
      sem_basic = 0.78; sem_inter = 0.48; sem_adv = 0.20;
      break;
  }
  KnowledgeState k;
  k.syntax_skill = syntax;
  k.api_recency = api;
  for (AlgorithmId id : all_algorithms()) {
    switch (algorithm_tier(id)) {
      case Tier::kBasic: k.semantic[id] = sem_basic; break;
      case Tier::kIntermediate: k.semantic[id] = sem_inter; break;
      case Tier::kAdvanced: k.semantic[id] = sem_adv; break;
    }
  }
  return k;
}

FaultRates fault_rates(const KnowledgeState& knowledge, AlgorithmId algorithm,
                       double syntax_difficulty) {
  require(syntax_difficulty > 0.0, "fault_rates: difficulty must be > 0");
  const auto clamp01 = [](double p) { return std::clamp(p, 0.0, 1.0); };
  const double syn_gap = 1.0 - knowledge.syntax_skill;
  const double api_gap = 1.0 - knowledge.api_recency;
  const double sem = knowledge.semantic_for(algorithm);
  FaultRates rates;
  rates.deprecated_import = clamp01(0.30 * api_gap * syntax_difficulty);
  rates.unknown_import = clamp01(0.08 * api_gap * syntax_difficulty);
  rates.parse_corruption = clamp01(0.20 * syn_gap * syntax_difficulty);
  rates.gate_misuse = clamp01(0.24 * syn_gap * syntax_difficulty);
  rates.index_error = clamp01(0.10 * syn_gap * syntax_difficulty);
  rates.missing_measure = clamp01(0.06 * syn_gap);
  rates.semantic_slip = clamp01(0.12 * (1.0 - sem));
  return rates;
}

std::uint64_t knowledge_digest(const KnowledgeState& knowledge) noexcept {
  cache::KeyHasher hasher;
  hasher.mix(knowledge.syntax_skill).mix(knowledge.api_recency);
  hasher.mix(static_cast<std::uint64_t>(knowledge.semantic.size()));
  // Ascending id order, as the ordered map this table replaced iterated:
  // the digest feeds generation keys, so it must not move.
  knowledge.semantic.for_each([&](AlgorithmId algorithm, double value) {
    hasher.mix(static_cast<std::uint64_t>(algorithm)).mix(value);
  });
  return hasher.digest();
}

}  // namespace qcgen::llm
