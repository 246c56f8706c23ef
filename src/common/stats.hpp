#pragma once
// Statistics helpers: a running mean/variance accumulator, confidence
// intervals for pass-rate estimates, and distances between measurement
// distributions.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qcgen {

/// Wilson score interval for a binomial proportion.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
Interval wilson_interval(std::size_t successes, std::size_t trials,
                         double z = 1.96);

/// Running mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Measurement-outcome histogram: bitstring -> count.
using Counts = std::map<std::string, std::uint64_t>;

/// Normalises counts to probabilities.
std::map<std::string, double> normalize(const Counts& counts);

/// Total variation distance between two counts distributions in [0, 1].
double total_variation_distance(const Counts& a, const Counts& b);

/// Total variation distance between two probability maps (each should
/// sum to ~1; no renormalisation is applied).
double total_variation_distance(const std::map<std::string, double>& a,
                                const std::map<std::string, double>& b);

/// Probability mass on a specific outcome (0 if absent).
double outcome_probability(const Counts& counts, const std::string& outcome);

/// Sorts outcomes by descending count, ties broken lexicographically.
std::vector<std::pair<std::string, std::uint64_t>> sorted_by_count(
    const Counts& counts);

}  // namespace qcgen
