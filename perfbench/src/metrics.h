// Metric arithmetic of the benchmark, kept free of any hmn type so the
// metric tests can feed it small hand-made inputs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// A percentile under the ten-beyond rule: a percentile p of n samples is
/// only meaningful when at least ten samples lie above it.  `samples` is
/// the count it was taken over, printed next to every reported value.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples strictly after the nearest rank
  [[nodiscard]] bool resolved() const { return beyond >= 10; }
};

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
[[nodiscard]] Percentile percentile(std::vector<double> samples, double p);

/// Median of the values (mean of the middle two for an even count); 0 for
/// an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Time-mean of a step function sampled after each event: value i holds
/// from times[i] to times[i + 1].  The last sample closes the window and
/// carries no weight.  A window of zero length falls back to the plain mean.
[[nodiscard]] double time_weighted_mean(std::span<const double> times,
                                        std::span<const double> values);

/// Arrivals admitted, immediately or later from the retry queue, divided
/// by arrivals (1 when nothing arrived).
[[nodiscard]] double acceptance(std::size_t admitted_immediately,
                                std::size_t admitted_from_queue,
                                std::size_t arrivals);

/// num / den, or 0 when den is 0: yield and fallback ratios of layers that
/// were never called read 0, not NaN.
[[nodiscard]] double ratio(double num, double den);

}  // namespace perfbench
