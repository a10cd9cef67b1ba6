// Metric arithmetic on small hand-made inputs.  Exits non-zero on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  using perfbench::percentile;
  // 1000 samples 1..1000: nearest rank 990, ten samples beyond it.
  const auto p99 = percentile(one_to(1000), 99.0);
  expect(near(p99.value, 990.0), "p99 of 1..1000 is 990");
  expect(p99.samples == 1000, "p99 sample count printed");
  expect(p99.beyond == 10 && p99.resolved(), "p99 of 1000 is resolved");
  const auto short99 = percentile(one_to(999), 99.0);
  expect(short99.beyond == 9 && !short99.resolved(),
         "p99 of 999 samples is unresolved");

  const auto p90 = percentile(one_to(100), 90.0);
  expect(near(p90.value, 90.0) && p90.resolved(), "p90 of 1..100 is 90");
  expect(!percentile(one_to(99), 90.0).resolved(), "p90 of 99 unresolved");
  expect(percentile(one_to(20), 50.0).resolved() &&
             !percentile(one_to(19), 50.0).resolved(),
         "p50 needs 20 samples");

  // Input order does not matter; the median rank of 1..20 is 10.
  std::vector<double> shuffled = {7, 3, 20, 1, 15, 9, 12, 4, 18, 2,
                                  11, 6, 19, 5, 14, 8, 16, 10, 13, 17};
  const auto p50 = percentile(shuffled, 50.0);
  expect(near(p50.value, 10.0) && p50.resolved(), "p50 of shuffled 1..20");
  expect(percentile({}, 50.0).samples == 0, "empty input has no samples");
}

void medians() {
  using perfbench::median;
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
  expect(near(median({}), 0.0), "empty median");
}

void time_weighted() {
  using perfbench::time_weighted_mean;
  // 10 for 1 time unit, then 40 for 3 units: (10 + 120) / 4.
  const std::vector<double> t = {0.0, 1.0, 4.0};
  const std::vector<double> v = {10.0, 40.0, 1000.0};
  expect(near(time_weighted_mean(t, v), 32.5), "step function time-mean");
  // Samples at the same instant: only the last one carries weight.
  const std::vector<double> t2 = {0.0, 0.0, 2.0};
  const std::vector<double> v2 = {99.0, 5.0, 7.0};
  expect(near(time_weighted_mean(t2, v2), 5.0), "tied samples");
  // A zero-length window falls back to the plain mean.
  const std::vector<double> t3 = {3.0, 3.0};
  const std::vector<double> v3 = {2.0, 4.0};
  expect(near(time_weighted_mean(t3, v3), 3.0), "zero-length window");
  expect(near(time_weighted_mean({}, {}), 0.0), "empty window");
}

void acceptance_and_ratios() {
  using perfbench::acceptance;
  using perfbench::ratio;
  expect(near(acceptance(6, 2, 10), 0.8), "immediate plus backfilled");
  expect(near(acceptance(0, 0, 4), 0.0), "nothing admitted");
  expect(near(acceptance(0, 0, 0), 1.0), "no arrivals");
  // Yield: backfills per drain attempt; fallback: second-entry calls per
  // pool call.
  expect(near(ratio(3.0, 12.0), 0.25), "yield");
  expect(near(ratio(1157.0, 22965.0), 1157.0 / 22965.0), "RA yield");
  expect(near(ratio(5.0, 0.0), 0.0), "ratio of a layer never called");
}

}  // namespace

int main() {
  percentile_rule();
  medians();
  time_weighted();
  acceptance_and_ratios();
  if (failures != 0) {
    std::printf("%d metric test(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("metric tests passed\n");
  return EXIT_SUCCESS;
}
