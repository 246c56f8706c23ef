#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace qcgen {

Interval wilson_interval(std::size_t successes, std::size_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, centre - half), std::min(1.0, centre + half)};
}

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

std::map<std::string, double> normalize(const Counts& counts) {
  double total = 0.0;
  for (const auto& [_, c] : counts) total += static_cast<double>(c);
  std::map<std::string, double> out;
  if (total <= 0.0) return out;
  for (const auto& [k, c] : counts) out[k] = static_cast<double>(c) / total;
  return out;
}

double total_variation_distance(const Counts& a, const Counts& b) {
  return total_variation_distance(normalize(a), normalize(b));
}

double total_variation_distance(const std::map<std::string, double>& a,
                                const std::map<std::string, double>& b) {
  // One merge pass over the two sorted maps: keys come in ascending
  // order, and a key missing from one side contributes |x - 0| = |x|.
  double d = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      d += std::abs(ia->second);
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      d += std::abs(ib->second);
      ++ib;
    } else {
      d += std::abs(ia->second - ib->second);
      ++ia;
      ++ib;
    }
  }
  return 0.5 * d;
}

double outcome_probability(const Counts& counts, const std::string& outcome) {
  const auto p = normalize(counts);
  auto it = p.find(outcome);
  return it == p.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> sorted_by_count(
    const Counts& counts) {
  std::vector<std::pair<std::string, std::uint64_t>> v(counts.begin(),
                                                       counts.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return v;
}

}  // namespace qcgen
