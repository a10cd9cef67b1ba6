// Tests for the emulation session state machine.
#include <gtest/gtest.h>

#include "core/repair.h"
#include "emulator/session.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using emulator::EmulationSession;
using emulator::Phase;
using emulator::SessionConfig;

EmulationSession small_session(SessionConfig cfg = {}) {
  return EmulationSession(line_cluster(3), cfg);
}

void define_pair(EmulationSession& s) {
  const GuestId a = s.add_guest({75, 192, 150});
  const GuestId b = s.add_guest({75, 192, 150});
  s.add_link(a, b, {0.75, 45.0});
}

TEST(Session, HappyPathLifecycle) {
  auto s = small_session();
  EXPECT_EQ(s.phase(), Phase::kDefining);
  define_pair(s);
  ASSERT_TRUE(s.map()) << s.last_error();
  EXPECT_EQ(s.phase(), Phase::kMapped);
  EXPECT_TRUE(s.has_mapping());
  ASSERT_TRUE(s.deploy()) << s.last_error();
  EXPECT_EQ(s.phase(), Phase::kDeployed);
  ASSERT_TRUE(s.run()) << s.last_error();
  EXPECT_EQ(s.phase(), Phase::kDone);
  EXPECT_GT(s.experiment_result().makespan_seconds, 0.0);
  EXPECT_GT(s.simulated_seconds(), 0.0);
  // Timeline: map, deploy, run.
  ASSERT_EQ(s.timeline().size(), 3u);
  EXPECT_EQ(s.timeline()[0].phase, "map");
  EXPECT_EQ(s.timeline()[1].phase, "deploy");
  EXPECT_EQ(s.timeline()[2].phase, "run");
}

TEST(Session, DeployBeforeMapRefused) {
  auto s = small_session();
  define_pair(s);
  EXPECT_FALSE(s.deploy());
  EXPECT_EQ(s.phase(), Phase::kDefining);  // not fatal
  EXPECT_FALSE(s.last_error().empty());
}

TEST(Session, RunBeforeDeployRefused) {
  auto s = small_session();
  define_pair(s);
  ASSERT_TRUE(s.map());
  EXPECT_FALSE(s.run());
  EXPECT_EQ(s.phase(), Phase::kMapped);
}

TEST(Session, RepeatedMapIsIdempotent) {
  auto s = small_session();
  define_pair(s);
  ASSERT_TRUE(s.map());
  const auto placement = s.mapping().guest_host;
  EXPECT_TRUE(s.map());  // no growth: no-op
  EXPECT_EQ(s.mapping().guest_host, placement);
  EXPECT_EQ(s.timeline().size(), 1u);
}

TEST(Session, GrowthReopensDefinitionAndExtends) {
  auto s = small_session();
  define_pair(s);
  ASSERT_TRUE(s.map());
  const auto placement = s.mapping().guest_host;

  const GuestId c = s.add_guest({75, 192, 150});
  EXPECT_EQ(s.phase(), Phase::kDefining);
  s.add_link(GuestId{0}, c, {0.5, 45.0});
  ASSERT_TRUE(s.map()) << s.last_error();
  EXPECT_EQ(s.phase(), Phase::kMapped);
  // Old guests kept their hosts (incremental extension).
  for (std::size_t g = 0; g < placement.size(); ++g) {
    EXPECT_EQ(s.mapping().guest_host[g], placement[g]);
  }
  ASSERT_EQ(s.timeline().size(), 2u);
  EXPECT_EQ(s.timeline()[1].phase, "extend");
}

TEST(Session, GrowthAfterRunRestartsPipeline) {
  auto s = small_session();
  define_pair(s);
  ASSERT_TRUE(s.map());
  ASSERT_TRUE(s.deploy());
  ASSERT_TRUE(s.run());
  s.add_guest({75, 192, 150});
  EXPECT_EQ(s.phase(), Phase::kDefining);
  ASSERT_TRUE(s.map());
  ASSERT_TRUE(s.deploy());
  ASSERT_TRUE(s.run());
  EXPECT_EQ(s.phase(), Phase::kDone);
}

TEST(Session, FirstMapFailureLeavesSessionDefinable) {
  auto s = EmulationSession(line_cluster(2, {1000, 100, 100}), {});
  s.add_guest({10, 5000, 10});  // fits nowhere
  EXPECT_FALSE(s.map());
  EXPECT_EQ(s.phase(), Phase::kDefining);
  EXPECT_FALSE(s.last_error().empty());
  // The tester trims the environment... (cannot remove guests; but can add
  // capacity-friendly ones and the failed state is not sticky).
}

TEST(Session, VmmOverheadShrinksCapacity) {
  SessionConfig cfg;
  cfg.vmm_overhead = {0.0, 4000.0, 0.0};  // eat almost all memory
  auto s = EmulationSession(line_cluster(2, {1000, 4096, 4096}), cfg);
  s.add_guest({10, 200, 10});  // 200 MB > 96 MB residual
  EXPECT_FALSE(s.map());
}

TEST(Session, ReportMentionsPhasesAndCounts) {
  auto s = small_session();
  define_pair(s);
  ASSERT_TRUE(s.map());
  ASSERT_TRUE(s.deploy());
  ASSERT_TRUE(s.run());
  const std::string report = s.report();
  EXPECT_NE(report.find("2 guests"), std::string::npos);
  EXPECT_NE(report.find("deploy"), std::string::npos);
  EXPECT_NE(report.find("run"), std::string::npos);
  EXPECT_NE(report.find("done"), std::string::npos);
}

TEST(Session, FailureInjectionRepairsAndRequiresRerun) {
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 57);
  emulator::EmulationSession s(cluster, {});
  util::Rng rng(58);
  std::vector<GuestId> guests;
  for (int i = 0; i < 80; ++i) {
    guests.push_back(s.add_guest({rng.uniform(50, 100),
                                  rng.uniform(128, 256),
                                  rng.uniform(100, 200)}));
  }
  for (std::size_t i = 1; i < guests.size(); ++i) {
    s.add_link(guests[i], guests[rng.index(i)],
               {rng.uniform(0.5, 1.0), rng.uniform(30, 60)});
  }
  ASSERT_TRUE(s.map()) << s.last_error();
  ASSERT_TRUE(s.deploy()) << s.last_error();
  ASSERT_TRUE(s.run()) << s.last_error();

  // Kill a host used by the mapping.
  const NodeId victim = s.mapping().guest_host[0];
  ASSERT_TRUE(s.inject_host_failure(victim)) << s.last_error();
  EXPECT_EQ(s.phase(), emulator::Phase::kDeployed);  // stale run dropped
  EXPECT_TRUE(core::mapping_avoids_node(s.cluster(), s.mapping(), victim));
  // The repair phase is on the timeline with redeployment cost.
  const auto& last = s.timeline().back();
  EXPECT_EQ(last.phase, "repair");
  EXPECT_GT(last.simulated_seconds, 0.0);
  // The experiment can run again on the repaired mapping.
  ASSERT_TRUE(s.run()) << s.last_error();
  EXPECT_EQ(s.phase(), emulator::Phase::kDone);
}

TEST(Session, GrowthAfterFailureAvoidsDeadHost) {
  // Regression (found by the lifecycle fuzz): new guests added after a
  // host failure must not be placed on the dead host, and new links must
  // not route through it.
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 59);
  emulator::EmulationSession s(cluster, {});
  util::Rng rng(60);
  std::vector<GuestId> guests;
  guests.push_back(s.add_guest({75, 192, 150}));
  for (int i = 0; i < 40; ++i) {
    const GuestId g = s.add_guest({75, 192, 150});
    s.add_link(g, guests[rng.index(guests.size())], {0.75, 45.0});
    guests.push_back(g);
  }
  ASSERT_TRUE(s.map()) << s.last_error();
  const NodeId victim = s.mapping().guest_host[0];
  ASSERT_TRUE(s.inject_host_failure(victim)) << s.last_error();

  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      const GuestId g = s.add_guest({75, 192, 150});
      s.add_link(g, guests[rng.index(guests.size())], {0.75, 45.0});
      guests.push_back(g);
    }
    ASSERT_TRUE(s.map()) << s.last_error();
    EXPECT_TRUE(core::mapping_avoids_node(s.cluster(), s.mapping(), victim))
        << "wave " << wave;
  }
}

TEST(Session, FailureInjectionBeforeMapRefused) {
  auto s = small_session();
  define_pair(s);
  EXPECT_FALSE(s.inject_host_failure(n(0)));
  EXPECT_EQ(s.phase(), emulator::Phase::kDefining);
}

TEST(Session, UnrepairableFailureIsFatal) {
  // Two hosts, one guest per host, second host too small to take both.
  auto s = emulator::EmulationSession(
      line_cluster({{1000, 300, 4096}, {1000, 250, 4096}}), {});
  const GuestId a = s.add_guest({10, 200, 10});
  const GuestId b = s.add_guest({10, 200, 10});
  s.add_link(a, b, {1.0, 60.0});
  ASSERT_TRUE(s.map()) << s.last_error();
  // Guests are on different hosts (no host fits 400 MB); killing either
  // leaves the refugee with nowhere to go.
  const NodeId victim = s.mapping().guest_host[a.index()];
  EXPECT_FALSE(s.inject_host_failure(victim));
  EXPECT_EQ(s.phase(), emulator::Phase::kFailed);
  EXPECT_FALSE(s.last_error().empty());
}

TEST(Session, PaperScaleSessionCompletes) {
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 55);
  const workload::Scenario sc{5.0, 0.02, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 56);
  EmulationSession s(cluster, {});
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    s.add_guest(venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)}));
  }
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const auto id = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
    const auto ep = venv.endpoints(id);
    s.add_link(ep.src, ep.dst, venv.link(id));
  }
  ASSERT_TRUE(s.map()) << s.last_error();
  ASSERT_TRUE(s.deploy()) << s.last_error();
  ASSERT_TRUE(s.run()) << s.last_error();
  // Simulated testbed time dwarfs the mapping wall time (paper §5.2).
  EXPECT_GT(s.simulated_seconds(), 100.0 * s.timeline()[0].wall_seconds);
}

}  // namespace
