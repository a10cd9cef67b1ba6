// Failure-injection tests: kill a host, repair the mapping, verify the
// result avoids the corpse and still satisfies every constraint.
#include <gtest/gtest.h>

#include "core/hmn_mapper.h"
#include "core/repair.h"
#include "core/validator.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using core::mapping_avoids_node;
using core::repair_mapping;
using core::RepairStats;

TEST(Repair, AvoidanceCheckerDetectsGuestsAndPaths) {
  const auto cluster = line_cluster(3);
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};  // passes through node 1
  EXPECT_FALSE(mapping_avoids_node(cluster, m, n(0)));  // guest on it
  EXPECT_FALSE(mapping_avoids_node(cluster, m, n(1)));  // path through it
  core::Mapping colocated;
  colocated.guest_host = {n(0), n(0)};
  colocated.link_paths = {{}};
  EXPECT_TRUE(mapping_avoids_node(cluster, colocated, n(1)));
  EXPECT_TRUE(mapping_avoids_node(cluster, colocated, n(2)));
}

TEST(Repair, MovesEvictedGuestAndReroutes) {
  // Ring of 4, guests on hosts 0 and 2, path through 1.  Kill host 1: the
  // path must re-route the other way; guests stay.
  const auto cluster = ring_cluster(4);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};  // 0-1-2

  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, n(1), &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_EQ(stats.guests_moved, 0u);
  EXPECT_EQ(stats.links_rerouted, 1u);
  EXPECT_TRUE(mapping_avoids_node(cluster, *out.mapping, n(1)));
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
  // Untouched placements.
  EXPECT_EQ(out.mapping->guest_host[a.index()], n(0));
  EXPECT_EQ(out.mapping->guest_host[b.index()], n(2));
}

TEST(Repair, EvictsGuestsFromFailedHost) {
  const auto cluster = ring_cluster(4);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(1), n(2)};
  m.link_paths = {{EdgeId{1}}};  // edge (1,2)

  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, n(1), &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_EQ(stats.guests_moved, 1u);
  EXPECT_NE(out.mapping->guest_host[a.index()], n(1));
  EXPECT_TRUE(mapping_avoids_node(cluster, *out.mapping, n(1)));
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
}

TEST(Repair, RefugeeJoinsAffinityNeighbor) {
  // Evicted guest has a heavy link to a survivor with room: it co-locates.
  const auto cluster = ring_cluster(4);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {9.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(1), n(3)};
  m.link_paths = {{EdgeId{1}, EdgeId{2}}};  // 1-2-3

  const auto out = repair_mapping(cluster, venv, m, n(1));
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_EQ(out.mapping->guest_host[a.index()], n(3));
  EXPECT_TRUE(out.mapping->link_paths[0].empty());  // now intra-host
}

TEST(Repair, FailsWhenNoSurvivorFits) {
  const auto cluster = line_cluster({{1000, 4096, 4096}, {1000, 50, 4096}});
  model::VirtualEnvironment venv;
  venv.add_guest({10, 100, 100});
  core::Mapping m;
  m.guest_host = {n(0)};
  m.link_paths = {};
  const auto out = repair_mapping(cluster, venv, m, n(0));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, core::MapErrorCode::kHostingFailed);
}

TEST(Repair, FailsWhenSurvivingFabricCannotRoute) {
  // Line 0-1-2: killing the middle host disconnects the ends.
  const auto cluster = line_cluster(3);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};
  // Big guests so the refugees cannot just co-locate... here no guest is
  // evicted (failure is mid-path) but re-routing 0->2 without node 1 is
  // impossible on a line.
  const auto out = repair_mapping(cluster, venv, m, n(1));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, core::MapErrorCode::kNetworkingFailed);
}

TEST(Repair, InvalidHostRejected) {
  const auto cluster = line_cluster(2);
  const model::VirtualEnvironment venv;
  core::Mapping m;
  EXPECT_EQ(repair_mapping(cluster, venv, m, NodeId::invalid()).error,
            core::MapErrorCode::kInvalidInput);
  EXPECT_EQ(repair_mapping(cluster, venv, m, n(99)).error,
            core::MapErrorCode::kInvalidInput);
}

class RepairSweep : public testing::TestWithParam<int> {};

TEST_P(RepairSweep, PaperInstanceSurvivesAnyHostFailure) {
  // Map a paper-scale instance, then kill each of several hosts in turn;
  // every successful repair must avoid the corpse, keep every untouched
  // placement, and satisfy the validator.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto cluster = workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, seed);
  const workload::Scenario sc{5.0, 0.02, workload::WorkloadKind::kHighLevel};
  const auto venv = workload::make_scenario_venv(sc, cluster, seed + 1);
  const auto base = core::HmnMapper().map(cluster, venv, seed);
  ASSERT_TRUE(base.ok());

  for (unsigned h = 0; h < 40; h += 7) {
    RepairStats stats;
    const auto out =
        repair_mapping(cluster, venv, *base.mapping, n(h), &stats);
    ASSERT_TRUE(out.ok()) << "host " << h << ": " << out.detail;
    EXPECT_TRUE(mapping_avoids_node(cluster, *out.mapping, n(h)));
    EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok())
        << "host " << h;
    // Guests not on the failed host are untouched.
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      if (base.mapping->guest_host[g] != n(h)) {
        EXPECT_EQ(out.mapping->guest_host[g], base.mapping->guest_host[g]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSweep, testing::Range(100, 104));

// --- FailureSet-based repair: link failures, dark links, transit-only ---

TEST(Repair, LinkFailureReroutesWithoutEviction) {
  // Ring of 4, path 0-1-2 over edges {0,1}.  Kill edge 0: the path must go
  // the long way round (0-3-2) and no guest may move.
  const auto cluster = ring_cluster(4);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};
  EXPECT_FALSE(core::mapping_avoids_edge(m, EdgeId{0}));

  core::RepairOptions opts;
  opts.failed.links = {EdgeId{0}};
  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, opts, &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_EQ(stats.guests_moved, 0u);
  EXPECT_EQ(stats.links_rerouted, 1u);
  EXPECT_TRUE(stats.dark_links.empty());
  EXPECT_TRUE(core::mapping_avoids_edge(*out.mapping, EdgeId{0}));
  EXPECT_EQ(out.mapping->guest_host, m.guest_host);
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *out.mapping).ok());
}

TEST(Repair, TransitOnlyHostFailureViaFailureSet) {
  // The failed host carries a transit path but no guests: repair must
  // re-route without evicting anyone.
  const auto cluster = ring_cluster(4);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};  // transits host 1

  core::RepairOptions opts;
  opts.failed.nodes = {n(1)};
  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, opts, &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  EXPECT_EQ(stats.guests_moved, 0u);
  EXPECT_EQ(stats.links_rerouted, 1u);
  EXPECT_TRUE(mapping_avoids_node(cluster, *out.mapping, n(1)));
}

TEST(Repair, UnroutableLinkGoesDarkOnlyWhenAllowed) {
  // Line 0-1-2 with guests on the ends: killing edge (0,1) strands host 0,
  // so the virtual link cannot route.  Without dark links that is a clean
  // kNetworkingFailed; with them the link is returned dark (empty path).
  const auto cluster = line_cluster(3);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};

  core::RepairOptions strict;
  strict.failed.links = {EdgeId{0}};
  const auto refused = repair_mapping(cluster, venv, m, strict);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.error, core::MapErrorCode::kNetworkingFailed);

  core::RepairOptions lenient = strict;
  lenient.allow_dark_links = true;
  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, lenient, &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  ASSERT_EQ(stats.dark_links.size(), 1u);
  EXPECT_EQ(stats.dark_links[0], vl(0));
  EXPECT_TRUE(out.mapping->link_paths[0].empty());

  // Once the failure clears, the dark link counts as damage: a repair with
  // no failed elements routes it again.
  RepairStats healed;
  const auto rerouted =
      repair_mapping(cluster, venv, *out.mapping, core::RepairOptions{},
                     &healed);
  ASSERT_TRUE(rerouted.ok()) << rerouted.detail;
  EXPECT_EQ(healed.links_rerouted, 1u);
  EXPECT_TRUE(healed.dark_links.empty());
  EXPECT_FALSE(rerouted.mapping->link_paths[0].empty());
  EXPECT_TRUE(core::validate_mapping(cluster, venv, *rerouted.mapping).ok());
}

TEST(Repair, ZeroBandwidthLinkNeverCrossesDeadEdge) {
  // A 0-Mbps virtual link (the default demand) passes the bandwidth test
  // on every edge, including a dead one whose residual reads as zero; only
  // the dead edge's infinite latency keeps the search off it.
  const auto cluster = line_cluster(2);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {0.0, 60.0});
  core::Mapping m;
  m.guest_host = {n(0), n(1)};
  m.link_paths = {{EdgeId{0}}};
  ASSERT_TRUE(core::validate_mapping(cluster, venv, m).ok());

  core::RepairOptions lenient;
  lenient.failed.links = {EdgeId{0}};
  lenient.allow_dark_links = true;
  RepairStats stats;
  const auto out = repair_mapping(cluster, venv, m, lenient, &stats);
  ASSERT_TRUE(out.ok()) << out.detail;
  ASSERT_EQ(stats.dark_links.size(), 1u);
  EXPECT_EQ(stats.dark_links[0], vl(0));
  EXPECT_TRUE(out.mapping->link_paths[0].empty());
  EXPECT_TRUE(core::mapping_avoids_edge(*out.mapping, EdgeId{0}));

  core::RepairOptions strict = lenient;
  strict.allow_dark_links = false;
  const auto refused = repair_mapping(cluster, venv, m, strict);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.error, core::MapErrorCode::kNetworkingFailed);
}

TEST(Repair, CriticalLinkNeverGoesDark) {
  // Same stranding as above, but the virtual link carries the critical
  // SLA flag: allow_dark_links must NOT excuse it — the repair fails and
  // the caller has to evict (degraded-SLA scheduling).
  const auto cluster = line_cluster(3);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60.0, /*critical=*/true});
  core::Mapping m;
  m.guest_host = {n(0), n(2)};
  m.link_paths = {{EdgeId{0}, EdgeId{1}}};

  core::RepairOptions lenient;
  lenient.failed.links = {EdgeId{0}};
  lenient.allow_dark_links = true;
  const auto out = repair_mapping(cluster, venv, m, lenient);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, core::MapErrorCode::kNetworkingFailed);
  EXPECT_NE(out.detail.find("critical"), std::string::npos) << out.detail;
}

TEST(Repair, CapacityExhaustionFailsCleanlyViaFailureSet) {
  // The only survivor has 50 MB of memory: eviction cannot re-place the
  // guest and must fall back with kHostingFailed, not a partial mapping.
  const auto cluster = line_cluster({{1000, 4096, 4096}, {1000, 50, 4096}});
  model::VirtualEnvironment venv;
  venv.add_guest({10, 100, 100});
  core::Mapping m;
  m.guest_host = {n(0)};
  m.link_paths = {};
  core::RepairOptions opts;
  opts.failed.nodes = {n(0)};
  opts.allow_dark_links = true;  // dark links never excuse a homeless guest
  const auto out = repair_mapping(cluster, venv, m, opts);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, core::MapErrorCode::kHostingFailed);
}

TEST(Repair, AvoidanceCheckersHandleIntraHostLinks) {
  // Co-located guests have an empty (intra-host) path: it transits no node
  // and no edge, so only the hosting node itself is "touched".
  const auto cluster = line_cluster(3);
  core::Mapping m;
  m.guest_host = {n(1), n(1)};
  m.link_paths = {{}};
  EXPECT_FALSE(mapping_avoids_node(cluster, m, n(1)));
  EXPECT_TRUE(mapping_avoids_node(cluster, m, n(0)));
  EXPECT_TRUE(mapping_avoids_node(cluster, m, n(2)));
  EXPECT_TRUE(core::mapping_avoids_edge(m, EdgeId{0}));
  EXPECT_TRUE(core::mapping_avoids_edge(m, EdgeId{1}));
}

TEST(Repair, OutOfRangeFailedElementsRejected) {
  const auto cluster = line_cluster(2);
  const model::VirtualEnvironment venv;
  core::Mapping m;
  core::RepairOptions bad_node;
  bad_node.failed.nodes = {n(99)};
  EXPECT_EQ(repair_mapping(cluster, venv, m, bad_node).error,
            core::MapErrorCode::kInvalidInput);
  core::RepairOptions bad_link;
  bad_link.failed.links = {EdgeId{99}};
  EXPECT_EQ(repair_mapping(cluster, venv, m, bad_link).error,
            core::MapErrorCode::kInvalidInput);
}

}  // namespace
