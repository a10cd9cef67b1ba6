// Tests for the R / RA / HS baseline mappers.
#include <gtest/gtest.h>

#include "baselines/composite_mappers.h"
#include "baselines/random_host_mapper.h"
#include "core/hosting.h"
#include "core/validator.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using baselines::BaselineOptions;
using baselines::HostingSearchMapper;
using baselines::RandomAStarMapper;
using baselines::RandomDfsMapper;
using baselines::random_placement;
using core::MapErrorCode;
using core::ResidualState;

TEST(RandomPlacement, RespectsResourceConstraints) {
  const auto cluster = line_cluster(3, {1000, 1000, 1000});
  auto venv = chain_venv(6, {10, 400, 400});
  util::Rng rng(1);
  ResidualState st(cluster);
  const auto placement = random_placement(venv, st, rng);
  ASSERT_TRUE(placement.has_value());
  // 6 guests x 400 MB over 3 hosts of 1000 MB: exactly 2 per host.
  std::vector<int> count(3, 0);
  for (const NodeId h : *placement) ++count[h.index()];
  for (const int c : count) EXPECT_EQ(c, 2);
}

TEST(RandomPlacement, FailsWhenNothingFits) {
  const auto cluster = line_cluster(2, {1000, 100, 100});
  auto venv = chain_venv(1, {10, 500, 10});
  util::Rng rng(1);
  ResidualState st(cluster);
  EXPECT_FALSE(random_placement(venv, st, rng).has_value());
}

TEST(RandomPlacement, SpreadsAcrossHosts) {
  const auto cluster = line_cluster(4, {1000, 100000, 100000});
  auto venv = chain_venv(200, {10, 10, 10});
  util::Rng rng(9);
  ResidualState st(cluster);
  const auto placement = random_placement(venv, st, rng);
  ASSERT_TRUE(placement.has_value());
  std::vector<int> count(4, 0);
  for (const NodeId h : *placement) ++count[h.index()];
  for (const int c : count) {
    EXPECT_GT(c, 20);  // roughly uniform: expected 50 each
    EXPECT_LT(c, 80);
  }
}

TEST(RandomPlacement, DifferentSeedsDifferentPlacements) {
  const auto cluster = line_cluster(8, {1000, 100000, 100000});
  auto venv = chain_venv(50, {10, 10, 10});
  util::Rng r1(1), r2(2);
  ResidualState s1(cluster), s2(cluster);
  const auto p1 = random_placement(venv, s1, r1);
  const auto p2 = random_placement(venv, s2, r2);
  ASSERT_TRUE(p1.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_NE(*p1, *p2);
}

TEST(Baselines, NamesMatchPaperColumns) {
  EXPECT_EQ(RandomDfsMapper().name(), "R");
  EXPECT_EQ(RandomAStarMapper().name(), "RA");
  EXPECT_EQ(HostingSearchMapper().name(), "HS");
}

TEST(RandomAStar, ValidMappingOnEasyInstance) {
  const auto cluster = line_cluster(4);
  auto venv = chain_venv(8);
  BaselineOptions opts;
  opts.max_tries = 50;
  const RandomAStarMapper mapper(opts);
  const auto out = mapper.map(cluster, venv, 3);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
  EXPECT_GE(out.stats.tries, 1u);
}

TEST(RandomDfs, SucceedsOnSwitchedCluster) {
  // On a star/switched fabric the naive DFS always finds the 2-hop route.
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kSwitched, 5);
  workload::Scenario sc{2.5, 0.02, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 6);
  BaselineOptions opts;
  opts.max_tries = 20;
  const RandomDfsMapper mapper(opts);
  const auto out = mapper.map(cluster, venv, 7);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
}

TEST(RandomDfs, ExhaustsTriesOnImpossibleInstance) {
  const auto cluster = line_cluster(2, {1000, 1000, 1000});
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 700, 10});
  const GuestId b = venv.add_guest({10, 700, 10});
  venv.add_link(a, b, {1.0, 2.0});  // unroutable: 2 ms < 5 ms hop latency
  BaselineOptions opts;
  opts.max_tries = 5;
  const RandomDfsMapper mapper(opts);
  const auto out = mapper.map(cluster, venv, 1);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, MapErrorCode::kTriesExhausted);
  EXPECT_EQ(out.stats.tries, 5u);
}

TEST(RandomAStar, RetriesUntilPlacementRoutes) {
  // A ring whose only wide edges sit between specific host pairs: some
  // random placements cannot route the heavy link, so RA must retry
  // placements (tries > 1 for at least some seed) yet eventually succeed.
  const auto cluster = ring_cluster(4, {1000, 500, 4096}, {100.0, 5.0});
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 400, 10});
  const GuestId b = venv.add_guest({10, 400, 10});
  venv.add_link(a, b, {90.0, 5.0});  // 5 ms: adjacent hosts only
  BaselineOptions opts;
  opts.max_tries = 200;
  const RandomAStarMapper mapper(opts);
  bool needed_retry = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto out = mapper.map(cluster, venv, seed);
    ASSERT_TRUE(out.ok()) << out.detail;
    EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
    needed_retry |= out.stats.tries > 1;
  }
  // Guests of 400 MB on 500-MB hosts can never co-locate, and the 5 ms
  // bound rules out the opposite-corner placements (2 hops = 10 ms), so
  // about a third of random placements must be retried.
  EXPECT_TRUE(needed_retry);
}

TEST(HostingSearch, HostingFailureIsTerminal) {
  const auto cluster = line_cluster(2, {1000, 100, 100});
  auto venv = chain_venv(2, {10, 500, 10});
  const HostingSearchMapper mapper;
  const auto out = mapper.map(cluster, venv, 1);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, MapErrorCode::kHostingFailed);
}

TEST(HostingSearch, SucceedsOnSwitchedCluster) {
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kSwitched, 8);
  workload::Scenario sc{2.5, 0.02, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 9);
  BaselineOptions opts;
  opts.max_tries = 20;
  const HostingSearchMapper mapper(opts);
  const auto out = mapper.map(cluster, venv, 1);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
}

TEST(HostingSearch, PlacementIdenticalToHostingStage) {
  // HS must not re-randomize the placement across networking retries.
  const auto cluster = line_cluster(3);
  auto venv = chain_venv(6);
  BaselineOptions opts;
  opts.max_tries = 3;
  const HostingSearchMapper mapper(opts);
  const auto o1 = mapper.map(cluster, venv, 1);
  const auto o2 = mapper.map(cluster, venv, 999);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1.mapping->guest_host, o2.mapping->guest_host);
}

TEST(Baselines, AllValidOnPaperSwitchedScenario) {
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kSwitched, 11);
  workload::Scenario sc{5.0, 0.015, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, 12);
  BaselineOptions opts;
  opts.max_tries = 30;
  const RandomDfsMapper r(opts);
  const RandomAStarMapper ra(opts);
  const HostingSearchMapper hs(opts);
  for (const core::Mapper* m :
       std::initializer_list<const core::Mapper*>{&r, &ra, &hs}) {
    const auto out = m->map(cluster, venv, 13);
    ASSERT_TRUE(out.ok()) << m->name() << ": " << out.detail;
    EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok())
        << m->name();
  }
}

TEST(RandomBaselines, CertifiedInstanceFailsBeforeTheFirstTry) {
  // Aggregate memory (Eq. 2): 3 x 700 MB on 2 hosts of 1000 MB; one guest
  // larger than any host's storage (Eq. 3); 3 x 600 MB on the same hosts,
  // which only the packing search rules out: any two overflow a host.
  const auto cluster = line_cluster(2, {1000, 1000, 1000});
  struct Case {
    model::VirtualEnvironment venv;
    const char* eq;
  };
  const Case cases[] = {
      {chain_venv(3, {10, 700, 10}), "Eq. 2 (memory)"},
      {chain_venv(2, {10, 10, 1500}), "Eq. 3"},
      {chain_venv(3, {10, 600, 10}), "Eq. 2 and Eq. 3"},
  };
  BaselineOptions opts;
  opts.max_tries = 50;
  const RandomDfsMapper r(opts);
  const RandomAStarMapper ra(opts);
  for (const Case& c : cases) {
    for (const core::Mapper* mapper : {static_cast<const core::Mapper*>(&r),
                                       static_cast<const core::Mapper*>(&ra)}) {
      const auto out = mapper->map(cluster, c.venv, 1);
      EXPECT_FALSE(out.ok());
      EXPECT_EQ(out.error, MapErrorCode::kTriesExhausted) << mapper->name();
      EXPECT_EQ(out.stats.tries, 0u) << mapper->name();
      EXPECT_NE(out.detail.find(c.eq), std::string::npos)
          << mapper->name() << ": " << out.detail;
    }
  }
}

TEST(RandomBaselines, SearchAtItsCapLeavesEveryTryToRun) {
  // Nine guests of 515-523 MB on eight hosts of 1000-1007 MB: no host holds
  // two, so nothing packs, yet each guest fits alone and the totals fit.
  // All guests and hosts differ, so no placement is a repeat, and the
  // search would need about 8! placements to exhaust them.
  std::vector<model::HostCapacity> caps;
  for (int h = 0; h < 8; ++h) caps.push_back({1000, 1000.0 + h, 1000});
  const auto cluster = line_cluster(std::move(caps));
  model::VirtualEnvironment venv;
  for (int g = 0; g < 9; ++g) venv.add_guest({10, 515.0 + g, 10});
  EXPECT_FALSE(core::certify_infeasible(cluster, venv).has_value());

  BaselineOptions opts;
  opts.max_tries = 40;
  const RandomDfsMapper r(opts);
  const RandomAStarMapper ra(opts);
  for (const core::Mapper* mapper : {static_cast<const core::Mapper*>(&r),
                                     static_cast<const core::Mapper*>(&ra)}) {
    const auto out = mapper->map(cluster, venv, 1);
    EXPECT_EQ(out.error, MapErrorCode::kTriesExhausted) << mapper->name();
    EXPECT_EQ(out.stats.tries, opts.max_tries) << mapper->name();
  }
}

TEST(RandomDfs, FailedCallReportsItsRoutingTime) {
  // Every try places (one guest per host) and then fails to route.
  const auto cluster = line_cluster(2, {1000, 1000, 1000});
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 700, 10});
  const GuestId b = venv.add_guest({10, 700, 10});
  venv.add_link(a, b, {1.0, 2.0});  // 2 ms < the 5 ms hop
  BaselineOptions opts;
  opts.max_tries = 20;
  const auto out = RandomDfsMapper(opts).map(cluster, venv, 1);
  ASSERT_EQ(out.error, MapErrorCode::kTriesExhausted);
  EXPECT_GT(out.stats.networking_seconds, 0.0);
  EXPECT_LE(out.stats.networking_seconds, out.stats.total_seconds);
  EXPECT_GE(out.stats.hosting_seconds, 0.0);

  const auto hs = HostingSearchMapper(opts).map(cluster, venv, 1);
  ASSERT_EQ(hs.error, MapErrorCode::kTriesExhausted);
  EXPECT_GT(hs.stats.networking_seconds, 0.0);
  EXPECT_LE(hs.stats.hosting_seconds + hs.stats.networking_seconds,
            hs.stats.total_seconds);
}

}  // namespace
