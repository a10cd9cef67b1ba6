#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = nearest_rank(p, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double time_weighted_mean(std::span<const double> times,
                          std::span<const double> values) {
  const std::size_t n = std::min(times.size(), values.size());
  if (n == 0) return 0.0;
  const double window = times[n - 1] - times[0];
  if (!(window > 0.0)) {
    return std::accumulate(values.begin(), values.begin() +
                               static_cast<std::ptrdiff_t>(n), 0.0) /
           static_cast<double>(n);
  }
  double area = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    area += values[i] * (times[i + 1] - times[i]);
  }
  return area / window;
}

double acceptance(std::size_t admitted_immediately,
                  std::size_t admitted_from_queue, std::size_t arrivals) {
  if (arrivals == 0) return 1.0;
  return static_cast<double>(admitted_immediately + admitted_from_queue) /
         static_cast<double>(arrivals);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
