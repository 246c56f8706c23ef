// Monte-Carlo logical-error-rate tests, lifetime model tests, and
// validation of the circuit-level syndrome extraction against the
// phenomenological model.

#include <gtest/gtest.h>

#include "common/error.hpp"

#include "qec/lifetime.hpp"
#include "qec/logical_error.hpp"
#include "qec/syndrome_circuit.hpp"

namespace qcgen::qec {
namespace {

TEST(LogicalError, ZeroNoiseZeroFailures) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.0, 0.0};
  config.trials = 100;
  const auto estimate = estimate_logical_error(code, DecoderKind::kMwpm, config);
  EXPECT_EQ(estimate.failures, 0u);
  EXPECT_EQ(estimate.logical_error_rate, 0.0);
}

TEST(LogicalError, RateIncreasesWithPhysicalError) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig low;
  low.noise = {0.01, 0.01};
  low.trials = 1500;
  LogicalErrorConfig high = low;
  high.noise = {0.06, 0.06};
  const auto at_low = estimate_logical_error(code, DecoderKind::kMwpm, low);
  const auto at_high = estimate_logical_error(code, DecoderKind::kMwpm, high);
  EXPECT_LT(at_low.logical_error_rate, at_high.logical_error_rate);
}

TEST(LogicalError, DistanceHelpsBelowThreshold) {
  LogicalErrorConfig config;
  config.noise = {0.008, 0.008};
  config.trials = 2500;
  const auto d3 = estimate_logical_error(SurfaceCode::rotated(3),
                                         DecoderKind::kMwpm, config);
  const auto d5 = estimate_logical_error(SurfaceCode::rotated(5),
                                         DecoderKind::kMwpm, config);
  EXPECT_LE(d5.logical_error_rate, d3.logical_error_rate + 0.01);
}

TEST(LogicalError, MwpmNoWorseThanGreedy) {
  const SurfaceCode code = SurfaceCode::rotated(5);
  LogicalErrorConfig config;
  config.noise = {0.02, 0.02};
  config.trials = 1500;
  const auto mwpm = estimate_logical_error(code, DecoderKind::kMwpm, config);
  const auto greedy = estimate_logical_error(code, DecoderKind::kGreedy, config);
  EXPECT_LE(mwpm.logical_error_rate, greedy.logical_error_rate + 0.02);
}

TEST(LogicalError, DeterministicGivenSeed) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.03, 0.02};
  config.trials = 300;
  config.seed = 77;
  const auto a = estimate_logical_error(code, DecoderKind::kUnionFind, config);
  const auto b = estimate_logical_error(code, DecoderKind::kUnionFind, config);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.x_failures, b.x_failures);
}

TEST(LogicalError, PerRoundRateInversion) {
  LogicalErrorEstimate estimate;
  estimate.trials = 100;
  estimate.logical_error_rate = 0.2;
  const double per_round = estimate.per_round_rate(5);
  // (1 - r)^5 == 0.8
  EXPECT_NEAR(std::pow(1.0 - per_round, 5.0), 0.8, 1e-9);
  EXPECT_EQ(estimate.per_round_rate(0), 0.0);
}

TEST(LogicalError, ConfidenceIntervalBracketsRate) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LogicalErrorConfig config;
  config.noise = {0.05, 0.05};
  config.trials = 800;
  const auto e = estimate_logical_error(code, DecoderKind::kMwpm, config);
  EXPECT_LE(e.confidence.lo, e.logical_error_rate);
  EXPECT_GE(e.confidence.hi, e.logical_error_rate);
}

TEST(DecodeHistory, RequiresMatchingDecoderTypes) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto z_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kZ);
  auto x_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kX);
  SyndromeHistory history(code.num_data_qubits());
  history.rounds = {measure_syndrome(code, history.frame)};
  EXPECT_THROW(decode_history(code, *x_dec, *z_dec, history),
               InvalidArgumentError);
  const auto outcome = decode_history(code, *z_dec, *x_dec, history);
  EXPECT_FALSE(outcome.x_flip);
  EXPECT_FALSE(outcome.z_flip);
}

TEST(Lifetime, ExtensionBelowThreshold) {
  const SurfaceCode code = SurfaceCode::rotated(5);
  LifetimeConfig config;
  config.trials = 1500;
  const LifetimeReport report = measure_lifetime(code, 0.004, config);
  EXPECT_GT(report.lifetime_extension, 1.0);
  EXPECT_LT(report.suppression_factor, 1.0);
  EXPECT_NEAR(report.physical_lifetime_rounds, 250.0, 1e-9);
}

TEST(Lifetime, SuppressionSaturatesAtOne) {
  // Far above threshold the code cannot help; suppression is capped at 1.
  const SurfaceCode code = SurfaceCode::rotated(3);
  LifetimeConfig config;
  config.trials = 400;
  const LifetimeReport report = measure_lifetime(code, 0.25, config);
  EXPECT_LE(report.suppression_factor, 1.0);
}

TEST(Lifetime, EffectiveNoiseScalesAllChannels) {
  LifetimeReport report;
  report.suppression_factor = 0.25;
  const sim::NoiseModel physical = sim::NoiseModel::ibm_brisbane();
  const sim::NoiseModel effective = qec_effective_noise(physical, report);
  EXPECT_NEAR(effective.depolarizing_2q, physical.depolarizing_2q * 0.25,
              1e-12);
  EXPECT_NEAR(effective.readout_error, physical.readout_error * 0.25, 1e-12);
}

TEST(Lifetime, InvalidInputsRejected) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  LifetimeConfig config;
  EXPECT_THROW(measure_lifetime(code, 0.0, config), InvalidArgumentError);
  EXPECT_THROW(measure_lifetime(code, 1.0, config), InvalidArgumentError);
}

// --- Circuit-level syndrome extraction (tableau-backed) ---------------

TEST(SyndromeCircuit, NoiselessRunsAreEventFree) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(5);
  for (bool logical_one : {false, true}) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 3, 0.0, 0.0, logical_one, rng);
    EXPECT_TRUE(detection_events(history, PauliType::kX).empty());
    EXPECT_TRUE(detection_events(history, PauliType::kZ).empty());
  }
}

TEST(SyndromeCircuit, InjectedFrameMatchesPhenomenologicalSyndrome) {
  // The circuit-level extraction must report the same final syndrome as
  // measure_syndrome() applied to the tracked injected frame.
  const SurfaceCode code = SurfaceCode::rotated(3);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 2, 0.08, 0.0, false, rng);
    const Syndrome expected = measure_syndrome(code, history.frame);
    const Syndrome& final_round = history.rounds.back();
    EXPECT_EQ(final_round.x, expected.x) << "trial " << trial;
    EXPECT_EQ(final_round.z, expected.z) << "trial " << trial;
  }
}

TEST(SyndromeCircuit, DecodingCircuitLevelHistoriesWorks) {
  const SurfaceCode code = SurfaceCode::rotated(3);
  auto z_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kZ);
  auto x_dec = make_decoder(DecoderKind::kMwpm, code, PauliType::kX);
  Rng rng(13);
  std::size_t failures = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const SyndromeHistory history =
        run_syndrome_circuit(code, 3, 0.01, 0.01, true, rng);
    const auto outcome = decode_history(code, *z_dec, *x_dec, history);
    if (outcome.x_flip || outcome.z_flip) ++failures;
  }
  // At p = 0.01 the distance-3 code should protect most trials.
  EXPECT_LT(failures, trials / 4);
}

}  // namespace
}  // namespace qcgen::qec
