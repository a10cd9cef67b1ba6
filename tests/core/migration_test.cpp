// Tests for the Migration stage (Section 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "core/migration.h"
#include "core/objective.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using core::MigrationOptions;
using core::ResidualState;
using core::run_migration;
using model::VirtualEnvironment;

TEST(Migration, MovesGuestFromLoadedToIdleHost) {
  const auto cluster = line_cluster(2, {1000, 4096, 4096});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({400, 100, 100});
  const GuestId b = venv.add_guest({400, 100, 100});
  std::vector<NodeId> placement{n(0), n(0)};  // both on host 0
  ResidualState st(cluster);
  st.place(venv.guest(a), n(0));
  st.place(venv.guest(b), n(0));

  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_LT(r.final_lbf, r.initial_lbf);
  EXPECT_DOUBLE_EQ(r.final_lbf, 0.0);  // 400/400 split is perfectly balanced
  EXPECT_NE(placement[a.index()], placement[b.index()]);
}

TEST(Migration, NoMoveWhenAlreadyBalanced) {
  const auto cluster = line_cluster(2, {1000, 4096, 4096});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({400, 100, 100});
  const GuestId b = venv.add_guest({400, 100, 100});
  std::vector<NodeId> placement{n(0), n(1)};
  ResidualState st(cluster);
  st.place(venv.guest(a), n(0));
  st.place(venv.guest(b), n(1));

  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.final_lbf, r.initial_lbf);
}

TEST(Migration, RespectsMemoryConstraint) {
  // Target host has no memory headroom: the balancing move is impossible.
  const auto cluster = line_cluster({{1000, 4096, 4096}, {1000, 50, 4096}});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({400, 100, 100});
  const GuestId b = venv.add_guest({400, 100, 100});
  std::vector<NodeId> placement{n(0), n(0)};
  ResidualState st(cluster);
  st.place(venv.guest(a), n(0));
  st.place(venv.guest(b), n(0));

  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(placement[a.index()], n(0));
  EXPECT_EQ(placement[b.index()], n(0));
}

TEST(Migration, PicksGuestWithSmallestColocatedBandwidth) {
  // Guests a,b form a heavy pair on host 0; guest c (no colocated links)
  // should be the one migrated.
  const auto cluster = line_cluster(2, {1000, 4096, 4096});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({200, 100, 100});
  const GuestId b = venv.add_guest({200, 100, 100});
  const GuestId c = venv.add_guest({200, 100, 100});
  venv.add_link(a, b, {10.0, 60.0});
  std::vector<NodeId> placement{n(0), n(0), n(0)};
  ResidualState st(cluster);
  for (const GuestId g : {a, b, c}) st.place(venv.guest(g), n(0));

  const auto r = run_migration(venv, st, placement);
  EXPECT_GE(r.migrations, 1u);
  EXPECT_EQ(placement[a.index()], n(0));
  EXPECT_EQ(placement[b.index()], n(0));
  EXPECT_EQ(placement[c.index()], n(1));
}

TEST(Migration, IteratesUntilNoImprovement) {
  // Four identical guests on one of four hosts: full balancing takes three
  // consecutive migrations.
  const auto cluster = line_cluster(4, {1000, 4096, 4096});
  VirtualEnvironment venv;
  std::vector<GuestId> gs;
  for (int i = 0; i < 4; ++i) gs.push_back(venv.add_guest({300, 100, 100}));
  std::vector<NodeId> placement(4, n(0));
  ResidualState st(cluster);
  for (const GuestId g : gs) st.place(venv.guest(g), n(0));

  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 3u);
  EXPECT_DOUBLE_EQ(r.final_lbf, 0.0);
  std::set<NodeId> used(placement.begin(), placement.end());
  EXPECT_EQ(used.size(), 4u);
}

TEST(Migration, MaxMigrationsCapRespected) {
  const auto cluster = line_cluster(4, {1000, 4096, 4096});
  VirtualEnvironment venv;
  for (int i = 0; i < 4; ++i) venv.add_guest({300, 100, 100});
  std::vector<NodeId> placement(4, n(0));
  ResidualState st(cluster);
  for (unsigned i = 0; i < 4; ++i) st.place(venv.guest(g(i)), n(0));

  MigrationOptions opts;
  opts.max_migrations = 1;
  const auto r = run_migration(venv, st, placement, opts);
  EXPECT_EQ(r.migrations, 1u);
}

TEST(Migration, SingleHostClusterNoop) {
  const auto cluster = line_cluster(1);
  VirtualEnvironment venv;
  venv.add_guest({100, 100, 100});
  std::vector<NodeId> placement{n(0)};
  ResidualState st(cluster);
  st.place(venv.guest(g(0)), n(0));
  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(Migration, EmptyPlacementNoop) {
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  std::vector<NodeId> placement;
  ResidualState st(cluster);
  const auto r = run_migration(venv, st, placement);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_DOUBLE_EQ(r.initial_lbf, r.final_lbf);
}

TEST(Migration, NeverIncreasesLoadBalanceFactor) {
  // Property over random instances: the stage's objective is monotone.
  hmn::util::Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t hosts = 3 + rng.index(5);
    std::vector<model::HostCapacity> caps;
    for (std::size_t i = 0; i < hosts; ++i) {
      caps.push_back({rng.uniform(500, 3000), 4096, 4096});
    }
    const auto cluster = line_cluster(std::move(caps));
    VirtualEnvironment venv;
    const std::size_t guests = 5 + rng.index(15);
    std::vector<NodeId> placement;
    ResidualState st(cluster);
    for (std::size_t i = 0; i < guests; ++i) {
      const GuestId id = venv.add_guest({rng.uniform(10, 400), 64, 64});
      const NodeId host = cluster.hosts()[rng.index(hosts)];
      st.place(venv.guest(id), host);
      placement.push_back(host);
    }
    const auto r = run_migration(venv, st, placement);
    EXPECT_LE(r.final_lbf, r.initial_lbf + 1e-9) << "trial " << trial;
    // The reported final factor matches the state.
    EXPECT_NEAR(r.final_lbf, core::load_balance_factor(st), 1e-9);
  }
}

TEST(Migration, StateAndPlacementStayConsistent) {
  const auto cluster = line_cluster(3, {1000, 4096, 4096});
  auto venv = chain_venv(6, {200, 100, 100}, {1.0, 60.0});
  std::vector<NodeId> placement(6, n(0));
  ResidualState st(cluster);
  for (unsigned i = 0; i < 6; ++i) st.place(venv.guest(g(i)), n(0));

  (void)run_migration(venv, st, placement);
  // Rebuild residuals from scratch; they must agree with the mutated state.
  core::Mapping m;
  m.guest_host = placement;
  m.link_paths.assign(venv.link_count(), {});
  const ResidualState fresh(cluster, venv, m);
  for (const NodeId h : cluster.hosts()) {
    EXPECT_NEAR(fresh.residual_proc(h), st.residual_proc(h), 1e-9);
    EXPECT_NEAR(fresh.residual_mem(h), st.residual_mem(h), 1e-9);
  }
}

// ---- The filtered scans against the full scans ------------------------------
//
// reference_migration is the stage as it ran before its closed-form filters.
// The paper's victim rule: every candidate host, in least-loaded order, pays
// the O(n) load_balance_factor_if_moved until one fits and improves.
// kBestImprovement: every (guest, host) move off the origin pays it, and the
// scan ends on the first move with the smallest factor.  run_migration
// evaluates only the moves that can decide the result, and must commit
// exactly the moves these loops commit.

double colocated_bw(const VirtualEnvironment& venv,
                    const std::vector<NodeId>& guest_host, GuestId guest) {
  const NodeId home = guest_host[guest.index()];
  double sum = 0.0;
  for (const VirtLinkId l : venv.links_of(guest)) {
    const GuestId other = venv.endpoints(l).other(guest);
    if (other != guest && guest_host[other.index()] == home) {
      sum += venv.link(l).bandwidth_mbps;
    }
  }
  return sum;
}

core::MigrationResult reference_migration(const VirtualEnvironment& venv,
                                          ResidualState& state,
                                          std::vector<NodeId>& guest_host,
                                          std::size_t max_migrations,
                                          core::VictimPolicy policy) {
  core::MigrationResult result;
  const auto& hosts = state.cluster().hosts();
  result.initial_lbf = core::load_balance_factor(state);
  result.final_lbf = result.initial_lbf;
  if (hosts.size() < 2) return result;
  std::vector<std::size_t> host_index(state.cluster().node_count(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    host_index[hosts[i].index()] = i;
  }
  std::vector<std::vector<GuestId>> guests_on(hosts.size());
  for (std::size_t gi = 0; gi < guest_host.size(); ++gi) {
    guests_on[host_index[guest_host[gi].index()]].push_back(
        GuestId{static_cast<GuestId::underlying_type>(gi)});
  }
  double current_lbf = result.initial_lbf;
  for (;;) {
    if (max_migrations != 0 && result.migrations >= max_migrations) break;
    const std::vector<double> rproc = state.residual_proc_of_hosts();
    std::size_t origin = hosts.size();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (guests_on[i].empty()) continue;
      if (origin == hosts.size() || rproc[i] < rproc[origin]) origin = i;
    }
    if (origin == hosts.size()) break;
    std::vector<std::size_t> order(hosts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (rproc[a] != rproc[b]) return rproc[a] > rproc[b];
      return hosts[a] < hosts[b];
    });
    GuestId victim = GuestId::invalid();
    std::size_t target = hosts.size();
    double lbf_after = current_lbf;
    if (policy == core::VictimPolicy::kMinColocatedBandwidth) {
      double best_sum = std::numeric_limits<double>::infinity();
      for (const GuestId gst : guests_on[origin]) {
        const double sum = colocated_bw(venv, guest_host, gst);
        if (sum < best_sum ||
            (sum == best_sum && (!victim.valid() || gst < victim))) {
          best_sum = sum;
          victim = gst;
        }
      }
      const model::GuestRequirements& req = venv.guest(victim);
      for (const std::size_t cand : order) {
        if (cand == origin) continue;
        const double after = core::load_balance_factor_if_moved(
            rproc, origin, cand, req.proc_mips);
        if (after < current_lbf && state.fits(req, hosts[cand])) {
          target = cand;
          lbf_after = after;
          break;
        }
      }
    } else {
      for (const GuestId gst : guests_on[origin]) {
        const model::GuestRequirements& req = venv.guest(gst);
        for (const std::size_t cand : order) {
          if (cand == origin) continue;
          const double after = core::load_balance_factor_if_moved(
              rproc, origin, cand, req.proc_mips);
          if (after < lbf_after && state.fits(req, hosts[cand])) {
            victim = gst;
            target = cand;
            lbf_after = after;
          }
        }
      }
    }
    if (target == hosts.size()) break;
    const model::GuestRequirements& req = venv.guest(victim);
    state.remove(req, hosts[origin]);
    state.place(req, hosts[target]);
    guest_host[victim.index()] = hosts[target];
    auto& src = guests_on[origin];
    src.erase(std::find(src.begin(), src.end(), victim));
    guests_on[target].push_back(victim);
    current_lbf = lbf_after;
    ++result.migrations;
  }
  result.final_lbf = current_lbf;
  return result;
}

/// How the seeded instances spread residual CPU.
enum class Residuals {
  kIntegerTies,   // a few integer host sizes, integer guests: exact ties
  kGapVictims,    // guests of one CPU size, hosts in multiples of it
  kNegative,      // guests outweigh their hosts
  kNearEqual,     // hosts of 1000 (1 + k 2^-50) MIPS, tiny guests
  kLargeOffset,   // hosts near 1e9 MIPS, guests of a few MIPS
  kSpread,        // the paper's heterogeneous hosts
};

struct Instance {
  model::PhysicalCluster cluster;
  VirtualEnvironment venv;
  std::vector<NodeId> placement;
};

/// With `signed_demands`, a quarter of the guests get CPU demand 0 and
/// another quarter the negative of their draw.
Instance make_instance(std::size_t hosts, Residuals kind, hmn::util::Rng& rng,
                       bool signed_demands = false) {
  std::vector<model::HostCapacity> caps;
  std::vector<bool> full(hosts, false);  // fits no guest
  for (std::size_t i = 0; i < hosts; ++i) {
    double proc = 0.0;
    switch (kind) {
      case Residuals::kIntegerTies:
        proc = 100.0 * static_cast<double>(1 + rng.index(3));
        break;
      case Residuals::kGapVictims:
        proc = 40.0 * static_cast<double>(2 + rng.index(4));
        break;
      case Residuals::kNegative:
        proc = rng.uniform(10, 100);
        break;
      case Residuals::kNearEqual:
        proc = 1000.0 * (1.0 + std::ldexp(static_cast<double>(rng.index(4)),
                                          -50));
        break;
      case Residuals::kLargeOffset:
        proc = 1e9 + rng.uniform(0, 1000);
        break;
      case Residuals::kSpread:
        proc = rng.uniform(1000, 3000);
        break;
    }
    full[i] = hosts >= 4 && rng.index(5) == 0;
    caps.push_back({proc, full[i] ? 0.0 : 1e6, 1e6});
  }
  Instance in{line_cluster(std::move(caps)), {}, {}};
  // Guests start piled on the first few hosts that take them.
  std::vector<NodeId> open;
  for (std::size_t i = 0; i < hosts; ++i) {
    if (!full[i]) open.push_back(in.cluster.hosts()[i]);
  }
  const std::size_t piles = 1 + rng.index(std::max<std::size_t>(1, hosts / 8));
  const std::size_t guests =
      1 + rng.index(std::min<std::size_t>(2 * hosts, 60));
  for (std::size_t i = 0; i < guests; ++i) {
    double proc = 0.0;
    switch (kind) {
      case Residuals::kIntegerTies:
        proc = 25.0 * static_cast<double>(1 + rng.index(4));
        break;
      case Residuals::kGapVictims:
        proc = 40.0;
        break;
      case Residuals::kNegative:
        proc = rng.uniform(20, 200);
        break;
      case Residuals::kNearEqual:
        proc = 1e-3 * static_cast<double>(1 + rng.index(3));
        break;
      case Residuals::kLargeOffset:
        proc = rng.uniform(1, 10);
        break;
      case Residuals::kSpread:
        proc = rng.uniform(10, 400);
        break;
    }
    if (signed_demands) {
      const std::size_t sign = rng.index(4);
      if (sign == 0) proc = 0.0;
      if (sign == 1) proc = -proc;
    }
    (void)in.venv.add_guest({proc, 1.0, 1.0});
    in.placement.push_back(open[rng.index(std::min(piles, open.size()))]);
  }
  for (std::size_t i = 1; i < guests; ++i) {
    if (rng.index(2) == 0) continue;
    in.venv.add_link(g(static_cast<unsigned>(rng.index(i))),
                     g(static_cast<unsigned>(i)),
                     {static_cast<double>(1 + rng.index(3)), 60.0});
  }
  return in;
}

/// Moves committed over a battery, counted to prove it reaches both the
/// first iteration and later ones.
struct BatteryMoves {
  std::size_t first_moves = 0;  // with cap 1
  std::size_t moved = 0;        // with no cap
};

/// Runs run_migration and reference_migration with `policy` over seeded
/// instances of every residual kind on 2 to 700 hosts, and asserts that
/// they commit the same moves with bitwise-equal factors.  Cap 1 checks the
/// first committed move, against the two-pass initial factor; no cap runs
/// later iterations against the previous one-pass value until the stage
/// ends.
BatteryMoves check_battery(core::VictimPolicy policy, bool signed_demands,
                           std::uint64_t seed) {
  hmn::util::Rng rng(seed);
  const std::size_t sizes[] = {2, 3, 4, 5, 7, 12, 40, 128, 700};
  const Residuals kinds[] = {Residuals::kIntegerTies, Residuals::kGapVictims,
                             Residuals::kNegative,    Residuals::kNearEqual,
                             Residuals::kLargeOffset, Residuals::kSpread};
  BatteryMoves counts;
  for (const std::size_t hosts : sizes) {
    for (const Residuals kind : kinds) {
      const int reps = hosts >= 128 ? 2 : 12;
      for (int rep = 0; rep < reps; ++rep) {
        const Instance in = make_instance(hosts, kind, rng, signed_demands);
        for (const std::size_t cap : {std::size_t{1}, std::size_t{0}}) {
          ResidualState ref_state(in.cluster);
          ResidualState state(in.cluster);
          for (std::size_t gi = 0; gi < in.placement.size(); ++gi) {
            ref_state.place(in.venv.guest(g(static_cast<unsigned>(gi))),
                            in.placement[gi]);
            state.place(in.venv.guest(g(static_cast<unsigned>(gi))),
                        in.placement[gi]);
          }
          std::vector<NodeId> ref_gh = in.placement;
          std::vector<NodeId> gh = in.placement;
          const auto want =
              reference_migration(in.venv, ref_state, ref_gh, cap, policy);
          MigrationOptions opts;
          opts.victim = policy;
          opts.max_migrations = cap;
          const auto got = run_migration(in.venv, state, gh, opts);
          const auto where = ::testing::Message()
                             << hosts << " hosts, kind "
                             << static_cast<int>(kind) << ", rep " << rep
                             << ", cap " << cap;
          EXPECT_EQ(got.migrations, want.migrations) << where;
          EXPECT_EQ(gh, ref_gh) << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.initial_lbf),
                    std::bit_cast<std::uint64_t>(want.initial_lbf))
              << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_lbf),
                    std::bit_cast<std::uint64_t>(want.final_lbf))
              << where;
          if (::testing::Test::HasFailure()) return counts;
          if (cap == 1) counts.first_moves += got.migrations;
          if (cap == 0) counts.moved += got.migrations;
        }
      }
    }
  }
  return counts;
}

TEST(Migration, EarlyStopCommitsTheFullScansMoves) {
  const BatteryMoves plain =
      check_battery(core::VictimPolicy::kMinColocatedBandwidth, false, 0x5709);
  ASSERT_FALSE(HasFailure());
  const BatteryMoves with_signs =
      check_battery(core::VictimPolicy::kMinColocatedBandwidth, true, 0x570A);
  ASSERT_FALSE(HasFailure());
  // Both batteries commit moves on the first and on later iterations.
  EXPECT_GT(plain.first_moves, 100u);
  EXPECT_GT(plain.moved, 2 * plain.first_moves);
  EXPECT_GT(with_signs.first_moves, 100u);
  EXPECT_GT(with_signs.moved, with_signs.first_moves);
}

TEST(Migration, BestImprovementCommitsTheExhaustiveScansMoves) {
  const BatteryMoves plain =
      check_battery(core::VictimPolicy::kBestImprovement, false, 0xB357);
  ASSERT_FALSE(HasFailure());
  const BatteryMoves with_signs =
      check_battery(core::VictimPolicy::kBestImprovement, true, 0xB358);
  ASSERT_FALSE(HasFailure());
  // Both batteries commit moves on the first and on later iterations.
  EXPECT_GT(plain.first_moves, 100u);
  EXPECT_GT(plain.moved, 2 * plain.first_moves);
  EXPECT_GT(with_signs.first_moves, 100u);
  EXPECT_GT(with_signs.moved, with_signs.first_moves);
}

}  // namespace
