// Tests for the multi-tenant testbed manager.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/validator.h"
#include "emulator/tenancy.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using emulator::TenancyManager;

model::VirtualEnvironment pair_venv(double mem_mb = 192.0,
                                    double bw_mbps = 0.75) {
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({75, mem_mb, 150});
  const GuestId b = venv.add_guest({75, mem_mb, 150});
  venv.add_link(a, b, {bw_mbps, 45.0});
  return venv;
}

TEST(Tenancy, AdmitsAndTracksTenant) {
  TenancyManager mgr(line_cluster(3));
  const auto result = mgr.admit("alice", pair_venv(), 1);
  ASSERT_TRUE(result.ok()) << result.detail;
  EXPECT_EQ(mgr.tenant_count(), 1u);
  const auto* tenant = mgr.tenant(*result.tenant);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->name, "alice");
  EXPECT_TRUE(core::validate_mapping(mgr.cluster(), tenant->venv,
                                     tenant->mapping)
                  .ok());
}

TEST(Tenancy, RestoreRefusesIdsTheClusterLacks) {
  // A checkpoint decodes without a cluster to check ids against, so
  // restore refuses a mapping naming a node or link this cluster lacks,
  // and failure masks of another length, before applying any of it.
  TenancyManager live(line_cluster(3));
  ASSERT_TRUE(live.admit("a", pair_venv(), 1).ok());
  const TenancyManager::State good = live.export_state();
  auto refused = [](const TenancyManager::State& state) {
    TenancyManager mgr(line_cluster(3));
    EXPECT_THROW(mgr.restore_state(state), std::invalid_argument);
    EXPECT_EQ(mgr.tenant_count(), 0u);
  };
  TenancyManager::State far_host = good;
  far_host.tenants[0].mapping.guest_host[0] = NodeId{100000};
  refused(far_host);
  TenancyManager::State far_link = good;
  far_link.tenants[0].mapping.link_paths[0].push_back(EdgeId{100000});
  refused(far_link);
  TenancyManager::State short_nodes = good;
  short_nodes.node_down.pop_back();
  refused(short_nodes);
  TenancyManager::State long_links = good;
  long_links.edge_down.push_back(true);
  refused(long_links);

  TenancyManager restored(line_cluster(3));
  restored.restore_state(good);
  EXPECT_EQ(restored.tenant_count(), 1u);
}

TEST(Tenancy, DistinctIdsPerTenant) {
  TenancyManager mgr(line_cluster(3));
  const auto a = mgr.admit("a", pair_venv(), 1);
  const auto b = mgr.admit("b", pair_venv(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a.tenant, *b.tenant);
  EXPECT_EQ(mgr.tenant_count(), 2u);
}

TEST(Tenancy, RejectsWhenResidualExhausted) {
  // Each host holds 4096 MB; tenants of 2 x 1500 MB guests: two tenants
  // fill a 1-host... use a 1-host cluster for determinism.
  TenancyManager mgr(line_cluster(1, {1000, 4096, 99999}));
  ASSERT_TRUE(mgr.admit("a", pair_venv(1500), 1).ok());
  const auto second = mgr.admit("b", pair_venv(1500), 2);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.error, core::MapErrorCode::kTriesExhausted);  // pool's
  // last mapper (RA) exhausts tries after HMN's hosting failure.
  EXPECT_EQ(mgr.tenant_count(), 1u);
}

TEST(Tenancy, ReleaseReturnsCapacity) {
  TenancyManager mgr(line_cluster(1, {1000, 4096, 99999}));
  const auto a = mgr.admit("a", pair_venv(1500), 1);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(mgr.admit("b", pair_venv(1500), 2).ok());
  EXPECT_TRUE(mgr.release(*a.tenant));
  EXPECT_EQ(mgr.tenant_count(), 0u);
  EXPECT_TRUE(mgr.admit("b", pair_venv(1500), 3).ok());
}

TEST(Tenancy, ReleaseUnknownIdIsFalse) {
  TenancyManager mgr(line_cluster(2));
  EXPECT_FALSE(mgr.release(42));
}

TEST(Tenancy, ResidualClusterShrinksAndGrows) {
  TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const double before = mgr.residual_cluster().capacity(n(0)).mem_mb +
                        mgr.residual_cluster().capacity(n(1)).mem_mb;
  const auto a = mgr.admit("a", pair_venv(500), 1);
  ASSERT_TRUE(a.ok());
  const auto view = mgr.residual_cluster();
  const double after =
      view.capacity(n(0)).mem_mb + view.capacity(n(1)).mem_mb;
  EXPECT_DOUBLE_EQ(before - after, 1000.0);
  mgr.release(*a.tenant);
  const auto restored = mgr.residual_cluster();
  EXPECT_DOUBLE_EQ(restored.capacity(n(0)).mem_mb +
                       restored.capacity(n(1)).mem_mb,
                   before);
}

TEST(Tenancy, BandwidthReservationsVisibleToLaterTenants) {
  // Single physical link of 10 Mbps; first tenant takes 8, second needs 5
  // across hosts and must be rejected; after release it fits.
  auto cluster = line_cluster(2, {1000, 250, 4096}, {10.0, 5.0});
  TenancyManager mgr(std::move(cluster));
  // Guests of 200 MB cannot co-locate on 250 MB hosts: the link crosses.
  model::VirtualEnvironment heavy;
  const GuestId a = heavy.add_guest({10, 200, 10});
  const GuestId b = heavy.add_guest({10, 200, 10});
  heavy.add_link(a, b, {8.0, 60.0});
  const auto first = mgr.admit("first", std::move(heavy), 1);
  ASSERT_TRUE(first.ok()) << first.detail;

  // Second tenant: small guests (fit anywhere)... but to require crossing,
  // make them not co-locatable either (50 MB residual per host).
  model::VirtualEnvironment second;
  const GuestId c = second.add_guest({10, 40, 10});
  const GuestId d = second.add_guest({10, 40, 10});
  second.add_link(c, d, {5.0, 60.0});
  // Residual memory per host = 50 MB; both 40-MB guests cannot share one
  // host, so the 5 Mbps link must cross the 2 Mbps residual fabric: reject.
  const auto rejected = mgr.admit("second", second, 2);
  EXPECT_FALSE(rejected.ok());

  mgr.release(*first.tenant);
  EXPECT_TRUE(mgr.admit("second again", second, 3).ok());
}

TEST(Tenancy, UtilizationAggregates) {
  TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  EXPECT_DOUBLE_EQ(mgr.utilization().mem_fraction, 0.0);
  ASSERT_TRUE(mgr.admit("a", pair_venv(1024), 1).ok());
  const auto u = mgr.utilization();
  EXPECT_EQ(u.tenants, 1u);
  EXPECT_EQ(u.guests, 2u);
  EXPECT_NEAR(u.mem_fraction, 2048.0 / 8192.0, 1e-9);
  EXPECT_GT(u.proc_fraction, 0.0);
}

TEST(Tenancy, ManyTenantsShareThePaperCluster) {
  // Fill the paper's torus with 1:1-ratio tenants until rejection; all
  // admitted mappings must be valid and disjointly within capacity.
  TenancyManager mgr(workload::make_paper_cluster(
      workload::ClusterKind::kTorus2D, 77));
  std::size_t admitted = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const workload::Scenario sc{1.0, 0.05, workload::WorkloadKind::kHighLevel};
    auto venv = workload::make_scenario_venv(sc, mgr.cluster(), 100 + i);
    const auto result = mgr.admit("tenant" + std::to_string(i),
                                  std::move(venv), i);
    if (!result.ok()) break;
    ++admitted;
  }
  EXPECT_GE(admitted, 3u);
  const auto u = mgr.utilization();
  EXPECT_LE(u.mem_fraction, 1.0 + 1e-9);
  EXPECT_LE(u.stor_fraction, 1.0 + 1e-9);
  EXPECT_LE(u.peak_link_fraction, 1.0 + 1e-9);

  // Combined load per host must respect the real capacities: validate each
  // tenant against its own residual-view is already done at admit; here
  // check the aggregate by releasing all and confirming full restoration.
  std::vector<emulator::TenantId> ids;
  for (std::size_t i = 1; i <= admitted; ++i) {
    ids.push_back(static_cast<emulator::TenantId>(i));
  }
  for (const auto id : ids) EXPECT_TRUE(mgr.release(id));
  // Release restores capacity up to floating-point cancellation noise.
  EXPECT_NEAR(mgr.utilization().mem_fraction, 0.0, 1e-12);
  EXPECT_NEAR(mgr.utilization().peak_link_fraction, 0.0, 1e-12);
}

}  // namespace
