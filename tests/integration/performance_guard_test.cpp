// Performance regression guards: generous wall-clock ceilings on the
// paper's largest instances.  These bounds are ~20x the measured times on
// a single-core container, so they only trip on an accidental complexity
// regression (e.g. losing A*Prune's dominance pruning turns the largest
// torus instance from ~0.1 s into minutes).
#include <gtest/gtest.h>

#include "core/hmn_mapper.h"
#include "util/timer.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;

TEST(PerformanceGuard, LargestTorusInstanceUnderTwoSeconds) {
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 11);
  const workload::Scenario sc{50.0, 0.01, workload::WorkloadKind::kLowLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 12);
  ASSERT_EQ(venv.guest_count(), 2000u);

  const util::Timer timer;
  const auto out = core::HmnMapper().map(cluster, venv, 13);
  const double seconds = timer.elapsed_seconds();
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_LT(seconds, 2.0) << "HMN took " << seconds
                          << " s on the 2000-guest torus instance — "
                             "complexity regression?";
}

TEST(PerformanceGuard, SwitchedClusterStaysSubSecond) {
  // The paper highlights sub-second switched-cluster mapping as an
  // important practical result; hold the library to it.
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kSwitched, 11);
  const workload::Scenario sc{50.0, 0.01, workload::WorkloadKind::kLowLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 12);

  const util::Timer timer;
  const auto out = core::HmnMapper().map(cluster, venv, 13);
  const double seconds = timer.elapsed_seconds();
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_LT(seconds, 1.0);
}

TEST(PerformanceGuard, HostingAloneIsFast) {
  // Hosting moves the one host an assignment changed back into residual-
  // CPU order, O(n) per assignment; the 2000-guest instance must stay
  // comfortably interactive.
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 11);
  const workload::Scenario sc{50.0, 0.01, workload::WorkloadKind::kLowLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 12);
  core::ResidualState state(cluster);
  const util::Timer timer;
  const auto hosted = core::run_hosting(venv, state);
  ASSERT_TRUE(hosted.ok);
  EXPECT_LT(timer.elapsed_seconds(), 0.5);
}

}  // namespace
