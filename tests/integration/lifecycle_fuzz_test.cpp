// Lifecycle fuzzing: random operation sequences against the emulator
// frontend, with full invariant validation after every step.
//
//   * EmulationSession: interleaved grow / map / deploy / run /
//     inject_host_failure — the mapping must satisfy Eqs. 1-9 whenever one
//     exists, and a repaired mapping must avoid the failed host.
//   * TenancyManager: random admit / release — aggregate per-host memory,
//     storage, and per-link bandwidth across active tenants must never
//     exceed the real cluster's capacities.
#include <gtest/gtest.h>

#include <map>

#include "core/repair.h"
#include "core/validator.h"
#include "emulator/session.h"
#include "emulator/tenancy.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;

class SessionFuzz : public testing::TestWithParam<int> {};

TEST_P(SessionFuzz, RandomOperationSequencesKeepInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(util::derive_seed(31337, seed));
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kTorus2D, seed);
  emulator::SessionConfig config;
  config.seed = seed;
  emulator::EmulationSession session(cluster, config);

  // Seed environment: a small connected core.
  std::vector<GuestId> guests;
  guests.push_back(session.add_guest({75, 192, 150}));
  for (int i = 0; i < 30; ++i) {
    const GuestId g = session.add_guest(
        {rng.uniform(50, 100), rng.uniform(128, 256), rng.uniform(100, 200)});
    session.add_link(g, guests[rng.index(guests.size())],
                     {rng.uniform(0.5, 1.0), rng.uniform(30, 60)});
    guests.push_back(g);
  }
  ASSERT_TRUE(session.map()) << session.last_error();

  std::vector<NodeId> failed_hosts;
  for (int op = 0; op < 30 && session.phase() != emulator::Phase::kFailed;
       ++op) {
    switch (rng.index(5)) {
      case 0: {  // grow by a few guests
        const std::size_t before = guests.size();
        for (int i = 0; i < 3; ++i) {
          const GuestId g = session.add_guest({rng.uniform(50, 100),
                                               rng.uniform(128, 256),
                                               rng.uniform(100, 200)});
          session.add_link(g, guests[rng.index(before)],
                           {rng.uniform(0.5, 1.0), rng.uniform(30, 60)});
          guests.push_back(g);
        }
        break;
      }
      case 1:
        (void)session.map();
        break;
      case 2:
        (void)session.deploy();
        break;
      case 3:
        (void)session.run();
        break;
      default: {
        // Fail a random host the mapping currently uses (only when mapped,
        // and keep a couple of hosts alive).
        if (!session.has_mapping() ||
            session.phase() == emulator::Phase::kDefining ||
            failed_hosts.size() > 4) {
          break;
        }
        const NodeId victim =
            session.mapping().guest_host[rng.index(guests.size())];
        if (session.inject_host_failure(victim)) {
          failed_hosts.push_back(victim);
        }
        break;
      }
    }
    // Invariants after every operation.
    if (session.has_mapping() &&
        session.phase() != emulator::Phase::kDefining &&
        session.phase() != emulator::Phase::kFailed) {
      const auto report =
          core::validate_mapping(session.cluster(), session.venv(),
                                 session.mapping());
      ASSERT_TRUE(report.ok()) << "op " << op << ": " << report.summary();
      for (const NodeId dead : failed_hosts) {
        ASSERT_TRUE(core::mapping_avoids_node(session.cluster(),
                                              session.mapping(), dead))
            << "op " << op << " uses failed host " << dead.value();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionFuzz, testing::Range(1, 7));

class TenancyFuzz : public testing::TestWithParam<int> {};

TEST_P(TenancyFuzz, AggregateUsageNeverExceedsCapacity) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(util::derive_seed(424242, seed));
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, seed);
  emulator::TenancyManager mgr(cluster);

  std::vector<emulator::TenantId> active;
  for (int op = 0; op < 40; ++op) {
    if (active.empty() || rng.chance(0.6)) {
      workload::VenvGenOptions opts;
      opts.guest_count = 10 + rng.index(40);
      opts.density = 0.1;
      opts.profile = workload::high_level_profile();
      opts.normalize_to = &cluster;
      opts.capacity_fraction = 1.0;
      auto venv = workload::generate_venv(opts, rng);
      const auto result = mgr.admit("t", std::move(venv),
                                    util::derive_seed(seed, static_cast<std::uint64_t>(op)));
      if (result.ok()) active.push_back(*result.tenant);
    } else {
      const std::size_t pick = rng.index(active.size());
      ASSERT_TRUE(mgr.release(active[pick]));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    // Aggregate accounting across active tenants, from scratch.
    std::vector<double> mem(cluster.node_count(), 0.0);
    std::vector<double> stor(cluster.node_count(), 0.0);
    std::vector<double> bw(cluster.link_count(), 0.0);
    for (const auto id : active) {
      const auto* tenant = mgr.tenant(id);
      ASSERT_NE(tenant, nullptr);
      for (std::size_t g = 0; g < tenant->venv.guest_count(); ++g) {
        const auto gid = GuestId{static_cast<GuestId::underlying_type>(g)};
        mem[tenant->mapping.guest_host[g].index()] +=
            tenant->venv.guest(gid).mem_mb;
        stor[tenant->mapping.guest_host[g].index()] +=
            tenant->venv.guest(gid).stor_gb;
      }
      for (std::size_t l = 0; l < tenant->venv.link_count(); ++l) {
        const auto lid = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
        for (const EdgeId e : tenant->mapping.link_paths[l]) {
          bw[e.index()] += tenant->venv.link(lid).bandwidth_mbps;
        }
      }
    }
    for (const NodeId h : cluster.hosts()) {
      ASSERT_LE(mem[h.index()], cluster.capacity(h).mem_mb + 1e-6)
          << "op " << op;
      ASSERT_LE(stor[h.index()], cluster.capacity(h).stor_gb + 1e-6);
    }
    for (std::size_t e = 0; e < cluster.link_count(); ++e) {
      const auto id = EdgeId{static_cast<EdgeId::underlying_type>(e)};
      ASSERT_LE(bw[e], cluster.link(id).bandwidth_mbps + 1e-6) << "op " << op;
    }
    EXPECT_EQ(mgr.tenant_count(), active.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenancyFuzz, testing::Range(1, 7));

}  // namespace
