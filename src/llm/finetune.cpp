#include "llm/finetune.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qcgen::llm {

double fim_quality(double fim_rate) {
  require(fim_rate >= 0.0 && fim_rate <= 1.0, "fim_quality: rate in [0,1]");
  // Log-normal-shaped bump with mode at 0.1 (the paper's measured
  // optimum): quality(0.1) = 1; no infilling signal (rate 0) or
  // infilling-dominated training (rate 1) both cost roughly half the
  // fine-tuning benefit.
  const double floor = 0.45;
  if (fim_rate <= 0.0) return floor;
  const double x = std::log(fim_rate / 0.1);
  return floor + (1.0 - floor) * std::exp(-0.5 * x * x / (0.9 * 0.9));
}

double data_scale_factor(std::size_t corpus_tokens) {
  // Saturating log curve: 0 at 0 tokens, ~0.52 at 3M, ~0.8 at 100M.
  const double tokens = static_cast<double>(corpus_tokens);
  return 1.0 - 1.0 / (1.0 + std::log1p(tokens / 1.5e6));
}

KnowledgeState apply_finetuning(const KnowledgeState& base,
                                const FineTuneConfig& config) {
  require(config.upsampled_tokens >= config.corpus_tokens,
          "apply_finetuning: upsampled tokens below raw tokens");
  const double scale = data_scale_factor(config.corpus_tokens);
  const double fim = fim_quality(config.fim_rate);
  // Step count saturates quickly; 1500 steps at batch 4 on a small corpus
  // is enough to reach the data-limited plateau.
  const double step_factor =
      1.0 - std::exp(-static_cast<double>(config.steps) / 500.0);
  const double strength = scale * fim * step_factor;

  // Upsampling official sources mainly improves API recency (paper:
  // "official sources given higher priority").
  const double upsample_ratio =
      static_cast<double>(config.upsampled_tokens) /
      static_cast<double>(std::max<std::size_t>(1, config.corpus_tokens));
  const double recency_bonus =
      std::min(0.15, 0.08 * std::log2(std::max(1.0, upsample_ratio)) *
                         config.official_source_weight / 2.0);

  KnowledgeState tuned = base;
  tuned.syntax_skill = KnowledgeState::boost(base.syntax_skill, 0.95 * strength);
  tuned.api_recency = std::clamp(
      KnowledgeState::boost(base.api_recency, 0.60 * strength) + recency_bonus,
      0.0, 1.0);
  // Scraped repos contain few high-quality algorithmic walkthroughs
  // (paper Sec V-C), so semantic gains are modest and tier-dependent.
  tuned.semantic.for_each([&](AlgorithmId algo, double& sem) {
    double gain = 0.0;
    switch (algorithm_tier(algo)) {
      case Tier::kBasic: gain = 0.18; break;
      case Tier::kIntermediate: gain = 0.08; break;
      case Tier::kAdvanced: gain = 0.04; break;
    }
    sem = KnowledgeState::boost(sem, gain * strength);
  });
  return tuned;
}

}  // namespace qcgen::llm
