#include "qec/logical_error.hpp"

#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace qcgen::qec {

double LogicalErrorEstimate::per_round_rate(std::size_t rounds) const {
  if (rounds == 0 || trials == 0) return 0.0;
  // Solve (1 - p_round)^rounds = 1 - p_total.
  const double p_total = logical_error_rate;
  if (p_total >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - p_total, 1.0 / static_cast<double>(rounds));
}

DecodeOutcome decode_history(const SurfaceCode& code, Decoder& z_decoder,
                             Decoder& x_decoder,
                             const SyndromeHistory& history) {
  require(z_decoder.stabilizer_type() == PauliType::kZ,
          "decode_history: z_decoder must decode Z stabilizers");
  require(x_decoder.stabilizer_type() == PauliType::kX,
          "decode_history: x_decoder must decode X stabilizers");
  DecodeOutcome outcome;

  PauliFrame residual = history.frame;
  std::size_t total_events = 0;
  // X errors: Z-stabilizer detection events.
  {
    const auto events = detection_events(history, PauliType::kZ);
    total_events += events.size();
    trace::TraceSpan span("qec.decode");
    const auto qubits = z_decoder.decode(events);
    outcome.corrections_applied += qubits.size();
    residual.apply(correction_frame(code, PauliType::kZ, qubits));
  }
  // Z errors: X-stabilizer detection events.
  {
    const auto events = detection_events(history, PauliType::kX);
    total_events += events.size();
    trace::TraceSpan span("qec.decode");
    const auto qubits = x_decoder.decode(events);
    outcome.corrections_applied += qubits.size();
    residual.apply(correction_frame(code, PauliType::kX, qubits));
  }
  trace::Metrics::counter("qec.detection_events",
                          static_cast<std::int64_t>(total_events));
  trace::Metrics::counter("qec.corrections",
                          static_cast<std::int64_t>(outcome.corrections_applied));
  outcome.x_flip = logical_flip(code, residual, PauliType::kX);
  outcome.z_flip = logical_flip(code, residual, PauliType::kZ);
  return outcome;
}

LogicalErrorEstimate estimate_logical_error(const SurfaceCode& code,
                                            DecoderKind kind,
                                            const LogicalErrorConfig& config) {
  require(config.trials >= 1, "estimate_logical_error: need trials >= 1");
  const std::size_t rounds =
      config.rounds == 0 ? static_cast<std::size_t>(code.distance())
                         : config.rounds;
  auto z_decoder = make_decoder(kind, code, PauliType::kZ);
  auto x_decoder = make_decoder(kind, code, PauliType::kX);

  LogicalErrorEstimate estimate;
  estimate.trials = config.trials;
  Rng rng(config.seed);
  trace::TraceSpan mc_span("qec.estimate_logical_error");
  // A decoder estimate is the pipeline's longest uninterruptible stretch,
  // so the Monte-Carlo loop is a cooperative cancellation point: a
  // cancelled or past-deadline request aborts between decoder rounds
  // instead of finishing the full trial budget. Checked every 32 trials
  // to keep the hot loop unburdened (the RNG stream is untouched, so
  // completed runs stay bit-identical with or without an armed deadline).
  // In a pipeline this loop runs once per QecLifetimeMemo key, as the
  // memo's fill: QecDecoderAgent::plan_for takes the first checkpoint
  // itself, so a request served from the memo stops at the same site.
  constexpr std::size_t kCancelCheckStride = 32;
  for (std::size_t t = 0; t < config.trials; ++t) {
    if (t % kCancelCheckStride == 0) cancel::checkpoint("qec.decode.round");
    const SyndromeHistory history = [&] {
      trace::TraceSpan span("qec.syndrome_extraction");
      return sample_history(code, config.noise, rounds, rng);
    }();
    const DecodeOutcome outcome =
        decode_history(code, *z_decoder, *x_decoder, history);
    if (outcome.x_flip) ++estimate.x_failures;
    if (outcome.z_flip) ++estimate.z_failures;
    if (outcome.x_flip || outcome.z_flip) ++estimate.failures;
  }
  estimate.logical_error_rate = static_cast<double>(estimate.failures) /
                                static_cast<double>(estimate.trials);
  estimate.confidence = wilson_interval(estimate.failures, estimate.trials);
  return estimate;
}

}  // namespace qcgen::qec
