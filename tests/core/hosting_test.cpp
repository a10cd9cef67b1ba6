// Tests for the Hosting stage (Section 4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/hosting.h"
#include "core/networking.h"
#include "core/residual.h"
#include "testing/fixtures.h"
#include "topology/topologies.h"
#include "util/rng.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using core::HostingOptions;
using core::LinkOrder;
using core::ResidualState;
using core::ordered_links;
using core::run_hosting;
using model::VirtualEnvironment;

TEST(OrderedLinks, DescendingBandwidth) {
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  const GuestId c = venv.add_guest({});
  venv.add_link(a, b, {1.0, 60});   // link 0
  venv.add_link(b, c, {5.0, 60});   // link 1
  venv.add_link(a, c, {3.0, 60});   // link 2
  const auto order =
      ordered_links(venv, LinkOrder::kBandwidthDescending, 0);
  EXPECT_EQ(order, (std::vector<VirtLinkId>{vl(1), vl(2), vl(0)}));
}

TEST(OrderedLinks, AscendingBandwidth) {
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {5.0, 60});
  venv.add_link(a, b, {1.0, 60});
  const auto order = ordered_links(venv, LinkOrder::kBandwidthAscending, 0);
  EXPECT_EQ(order, (std::vector<VirtLinkId>{vl(1), vl(0)}));
}

TEST(OrderedLinks, TiesKeepInsertionOrder) {
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {2.0, 60});
  venv.add_link(a, b, {2.0, 60});
  venv.add_link(a, b, {2.0, 60});
  const auto order =
      ordered_links(venv, LinkOrder::kBandwidthDescending, 0);
  EXPECT_EQ(order, (std::vector<VirtLinkId>{vl(0), vl(1), vl(2)}));
}

TEST(OrderedLinks, RandomIsSeededPermutation) {
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  for (int i = 0; i < 20; ++i) venv.add_link(a, b, {1.0, 60});
  const auto o1 = ordered_links(venv, LinkOrder::kRandom, 7);
  const auto o2 = ordered_links(venv, LinkOrder::kRandom, 7);
  const auto o3 = ordered_links(venv, LinkOrder::kRandom, 8);
  EXPECT_EQ(o1, o2);
  EXPECT_NE(o1, o3);
  auto sorted = o1;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], vl(static_cast<unsigned>(i)));
  }
}

TEST(Hosting, CoLocatesLinkedGuestsWhenTheyFit) {
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[a.index()], r.guest_host[b.index()]);
}

TEST(Hosting, SplitsWhenPairDoesNotFitTogether) {
  // Each guest needs 3000 MB; hosts hold 4096 MB: one fits, two do not.
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({20, 3000, 100});
  const GuestId b = venv.add_guest({10, 3000, 100});
  venv.add_link(a, b, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_NE(r.guest_host[a.index()], r.guest_host[b.index()]);
}

TEST(Hosting, MostCpuIntensiveGuestPlacedFirstOnSplit) {
  // Hosts with distinct CPU: 2000 and 1000.  When the pair must split, the
  // more CPU-hungry guest takes the first (highest-CPU) host.
  auto cluster = line_cluster({{2000, 4096, 4096}, {1000, 4096, 4096}});
  VirtualEnvironment venv;
  const GuestId weak = venv.add_guest({10, 3000, 100});
  const GuestId strong = venv.add_guest({500, 3000, 100});
  venv.add_link(weak, strong, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[strong.index()], n(0));
  EXPECT_EQ(r.guest_host[weak.index()], n(1));
}

TEST(Hosting, UnassignedEndpointJoinsPeerHost) {
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  const GuestId c = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {5.0, 60});  // processed first
  venv.add_link(b, c, {1.0, 60});  // c joins b's host
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[c.index()], r.guest_host[b.index()]);
}

TEST(Hosting, PeerHostFullFallsBackToFirstFitting) {
  // Host memory 4096; a+b consume 4000, so c (200 MB) cannot join them.
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 2000, 100});
  const GuestId b = venv.add_guest({10, 2000, 100});
  const GuestId c = venv.add_guest({10, 200, 100});
  venv.add_link(a, b, {5.0, 60});
  venv.add_link(b, c, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[a.index()], r.guest_host[b.index()]);
  EXPECT_NE(r.guest_host[c.index()], r.guest_host[b.index()]);
}

TEST(Hosting, HighestResidualCpuHostChosenFirst) {
  auto cluster = line_cluster({{500, 4096, 4096}, {3000, 4096, 4096},
                               {1000, 4096, 4096}});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[a.index()], n(1));  // the 3000-MIPS host
}

TEST(Hosting, IsolatedGuestsStillPlaced) {
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  venv.add_guest({10, 100, 100});  // no links at all
  venv.add_guest({10, 100, 100});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  for (const NodeId h : r.guest_host) EXPECT_TRUE(h.valid());
}

TEST(Hosting, FailsWhenGuestFitsNowhere) {
  const auto cluster = line_cluster(2, {1000, 100, 100});
  VirtualEnvironment venv;
  venv.add_guest({10, 500, 10});  // needs 500 MB; hosts have 100
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.detail.empty());
}

TEST(Hosting, FailsWhenAggregateExceeded) {
  const auto cluster = line_cluster(2, {1000, 1000, 1000});
  model::VirtualEnvironment venv = chain_venv(4, {10, 600, 10});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);  // 4 x 600 MB > 2 x 1000 MB
  EXPECT_FALSE(r.ok);
}

TEST(Hosting, EmptyVenvSucceedsTrivially) {
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.guest_host.empty());
}

TEST(Hosting, SelfLoopLinkPlacesSingleGuest) {
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  venv.add_link(a, a, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(r.guest_host[a.index()].valid());
}

TEST(Hosting, BalanceOnlyIgnoresAffinity) {
  // Two heavy-linked guests; memory allows co-location but balance-only
  // hosting spreads them (two equal hosts: second guest goes to the less
  // loaded one).
  const auto cluster = line_cluster(2);
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({100, 100, 100});
  const GuestId b = venv.add_guest({100, 100, 100});
  venv.add_link(a, b, {9.0, 60.0});
  ResidualState st(cluster);
  HostingOptions opts;
  opts.policy = core::HostingPolicy::kBalanceOnly;
  const auto r = run_hosting(venv, st, opts);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_NE(r.guest_host[a.index()], r.guest_host[b.index()]);
  // Affinity hosting co-locates the same pair.
  ResidualState st2(cluster);
  const auto r2 = run_hosting(venv, st2);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.guest_host[a.index()], r2.guest_host[b.index()]);
}

TEST(Hosting, BalanceOnlyStillRespectsCapacity) {
  const auto cluster = line_cluster(2, {1000, 300, 4096});
  auto venv = chain_venv(4, {10, 200, 10});
  ResidualState st(cluster);
  HostingOptions opts;
  opts.policy = core::HostingPolicy::kBalanceOnly;
  const auto r = run_hosting(venv, st, opts);  // 4 x 200 MB > 2 x 300 MB
  EXPECT_FALSE(r.ok);
}

TEST(Hosting, AffinityMapsOverCapacityLinks) {
  // Section 5.2's claim: a virtual link demanding *more bandwidth than any
  // physical link offers* is mappable by affinity hosting (the endpoints
  // co-locate; the link lives inside the host), while link-blind placement
  // leaves it on the fabric where no path can carry it.
  const auto cluster = line_cluster(2, {1000, 4096, 4096}, {1000.0, 5.0});
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({100, 100, 100});
  const GuestId b = venv.add_guest({100, 100, 100});
  venv.add_link(a, b, {2500.0, 60.0});  // 2.5x the physical capacity

  // Affinity: hosting co-locates, networking sees no inter-host links.
  {
    ResidualState st(cluster);
    const auto hosted = run_hosting(venv, st);
    ASSERT_TRUE(hosted.ok);
    const auto routed = core::run_networking(venv, st, hosted.guest_host);
    ASSERT_TRUE(routed.ok) << routed.detail;
    EXPECT_EQ(routed.links_routed, 0u);
  }
  // Balance-only: guests split; the 2.5 Gbps link cannot be routed.
  {
    ResidualState st(cluster);
    HostingOptions opts;
    opts.policy = core::HostingPolicy::kBalanceOnly;
    const auto hosted = run_hosting(venv, st, opts);
    ASSERT_TRUE(hosted.ok);
    ASSERT_NE(hosted.guest_host[a.index()], hosted.guest_host[b.index()]);
    const auto routed = core::run_networking(venv, st, hosted.guest_host);
    EXPECT_FALSE(routed.ok);
  }
}

TEST(Hosting, ResidualStateReflectsAllPlacements) {
  const auto cluster = line_cluster(2);
  auto venv = chain_venv(4, {100, 500, 200});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  double placed_mem = 0.0;
  for (const NodeId h : cluster.hosts()) {
    placed_mem += 4096.0 - st.residual_mem(h);
  }
  EXPECT_DOUBLE_EQ(placed_mem, 2000.0);
}

TEST(Hosting, HighBandwidthPairsGetPriorityForCoLocation) {
  // Memory allows only one pair per host.  The high-bw pair is processed
  // first and must be co-located; the low-bw pair lands wherever remains.
  const auto cluster = line_cluster(2, {1000, 1000, 4096});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 450, 100});
  const GuestId b = venv.add_guest({10, 450, 100});
  const GuestId c = venv.add_guest({10, 450, 100});
  const GuestId d = venv.add_guest({10, 450, 100});
  venv.add_link(c, d, {9.0, 60});  // heavy: co-locate first
  venv.add_link(a, b, {1.0, 60});
  ResidualState st(cluster);
  const auto r = run_hosting(venv, st);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.guest_host[c.index()], r.guest_host[d.index()]);
}

TEST(AffinityHost, DownNeighborHostFallsBackToMostResidualCpu) {
  // Hosts 0 and 1 tie on residual CPU once host 2 is down: the first in
  // cluster.hosts() order wins.
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 100, 100});
  const GuestId b = venv.add_guest({10, 100, 100});
  venv.add_link(a, b, {5.0, 60.0});
  const std::vector<NodeId> placed{NodeId::invalid(), n(2)};
  const ResidualState st(cluster, venv, core::Mapping{placed, {}});
  const std::vector<bool> down{false, false, true};
  EXPECT_EQ(core::affinity_host(venv, st, placed, a), n(2));
  EXPECT_EQ(core::affinity_host(venv, st, placed, a, &down), n(0));

  const std::vector<bool> all_down(3, true);
  EXPECT_FALSE(core::affinity_host(venv, st, placed, a, &all_down).valid());
}

// ---- The paper's rule, literally.

/// Section 4.1 as the paper states it: the host list sorted by residual CPU
/// (most first, the lower NodeId on ties) and sorted again after every
/// assignment.  Each pick is the first host of the list that fits; the
/// co-location try takes the first host, fitting or not.  run_hosting
/// finds each pick in one pass over the hosts and must make the same
/// picks.  `tie_picks` counts picks whose next host in the list has the
/// same residual CPU and fits too, so NodeId alone decided them.
core::HostingResult reference_hosting(const VirtualEnvironment& venv,
                                      ResidualState& state,
                                      const HostingOptions& opts,
                                      std::size_t& tie_picks) {
  core::HostingResult result;
  result.guest_host.assign(venv.guest_count(), NodeId::invalid());
  if (state.cluster().host_count() == 0) return result;
  std::vector<NodeId> hosts = state.cluster().hosts();
  auto resort = [&] {
    std::sort(hosts.begin(), hosts.end(), [&](NodeId a, NodeId b) {
      const double ra = state.residual_proc(a);
      const double rb = state.residual_proc(b);
      if (ra != rb) return ra > rb;
      return a < b;
    });
  };
  resort();
  auto assigned = [&](GuestId g) {
    return result.guest_host[g.index()].valid();
  };
  auto assign = [&](GuestId g, NodeId h) {
    state.place(venv.guest(g), h);
    result.guest_host[g.index()] = h;
    resort();
  };
  // Assigns `g` to the first host in the list that fits it; false if none.
  auto assign_first_fitting = [&](GuestId g) {
    const auto& req = venv.guest(g);
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (!state.fits(req, hosts[i])) continue;
      if (i + 1 < hosts.size() &&
          state.residual_proc(hosts[i + 1]) ==
              state.residual_proc(hosts[i]) &&
          state.fits(req, hosts[i + 1])) {
        ++tie_picks;
      }
      assign(g, hosts[i]);
      return true;
    }
    return false;
  };

  if (opts.policy == core::HostingPolicy::kBalanceOnly) {
    std::vector<GuestId> order;
    for (std::size_t i = 0; i < venv.guest_count(); ++i) {
      order.push_back(g(static_cast<unsigned>(i)));
    }
    std::stable_sort(order.begin(), order.end(), [&](GuestId a, GuestId b) {
      return venv.guest(a).proc_mips > venv.guest(b).proc_mips;
    });
    for (const GuestId guest : order) {
      if (!assign_first_fitting(guest)) return result;
    }
    result.ok = true;
    return result;
  }

  for (const VirtLinkId l : ordered_links(venv, opts.order, opts.shuffle_seed)) {
    const auto [vs, vd] = venv.endpoints(l);
    if (assigned(vs) && assigned(vd)) continue;
    if (!assigned(vs) && !assigned(vd)) {
      if (vs != vd &&
          state.fits_both(venv.guest(vs), venv.guest(vd), hosts.front())) {
        const NodeId top = hosts.front();
        assign(vs, top);
        assign(vd, top);
        continue;
      }
      if (vs == vd) {
        if (!assign_first_fitting(vs)) return result;
        continue;
      }
      const GuestId g1 =
          venv.guest(vs).proc_mips >= venv.guest(vd).proc_mips ? vs : vd;
      const GuestId g2 = g1 == vs ? vd : vs;
      if (!assign_first_fitting(g1) || !assign_first_fitting(g2)) {
        return result;
      }
      continue;
    }
    const GuestId done = assigned(vs) ? vs : vd;
    const GuestId todo = assigned(vs) ? vd : vs;
    const NodeId peer = result.guest_host[done.index()];
    if (state.fits(venv.guest(todo), peer)) {
      assign(todo, peer);
    } else if (!assign_first_fitting(todo)) {
      return result;
    }
  }
  for (std::size_t i = 0; i < venv.guest_count(); ++i) {
    const GuestId guest = g(static_cast<unsigned>(i));
    if (!assigned(guest) && !assign_first_fitting(guest)) return result;
  }
  result.ok = true;
  return result;
}

TEST(Hosting, OnePassPicksMatchTheResortedList) {
  // Integer capacities and demands make residual-CPU ties common, so the
  // NodeId tie-break decides many picks; a pick that went to the higher
  // NodeId on a tie would differ from the reference.
  util::Rng rng(423);
  std::size_t hosted = 0;
  std::size_t failed = 0;
  std::size_t tie_picks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t host_count = 2 + rng.index(30);
    std::vector<model::HostCapacity> caps;
    for (std::size_t h = 0; h < host_count; ++h) {
      caps.push_back({500.0 * static_cast<double>(1 + rng.index(4)),
                      256.0 * static_cast<double>(1 + rng.index(16)),
                      100.0 * static_cast<double>(1 + rng.index(10))});
    }
    // Half the fabrics interleave switches with hosts.
    const model::PhysicalCluster cluster =
        trial % 2 == 0
            ? line_cluster(std::move(caps))
            : model::PhysicalCluster::build(
                  topology::switch_tree(host_count, 1 + rng.index(4), 2),
                  std::move(caps), model::LinkProps{1000.0, 5.0});

    VirtualEnvironment venv;
    const std::size_t guests = 1 + rng.index(24);
    for (std::size_t i = 0; i < guests; ++i) {
      // CPU demands may be negative: CPU is the objective, not a constraint.
      venv.add_guest({static_cast<double>(rng.index(1001)) - 300.0,
                      64.0 * static_cast<double>(1 + rng.index(24)),
                      10.0 * static_cast<double>(1 + rng.index(30))});
    }
    // Some links are self-loops; guests no link touches stay isolated.
    const std::size_t links = rng.index(2 * guests);
    for (std::size_t l = 0; l < links; ++l) {
      const auto a = static_cast<unsigned>(rng.index(guests));
      const auto b = rng.index(10) == 0
                         ? a
                         : static_cast<unsigned>(rng.index(guests));
      venv.add_link(g(a), g(b),
                    {static_cast<double>(1 + rng.index(5)), 60.0});
    }

    // Other tenants' load, the same on both sides.
    ResidualState state(cluster);
    for (const NodeId h : cluster.hosts()) {
      if (rng.index(3) != 0) continue;
      const model::GuestRequirements load{
          100.0 * static_cast<double>(rng.index(10)),
          std::min(cluster.capacity(h).mem_mb,
                   128.0 * static_cast<double>(rng.index(16))),
          0.0};
      state.place(load, h);
    }

    for (const auto policy :
         {core::HostingPolicy::kAffinity, core::HostingPolicy::kBalanceOnly}) {
      for (const auto order :
           {LinkOrder::kBandwidthDescending, LinkOrder::kBandwidthAscending,
            LinkOrder::kRandom}) {
        if (policy == core::HostingPolicy::kBalanceOnly &&
            order != LinkOrder::kBandwidthDescending) {
          continue;  // the link-blind policy reads no link order
        }
        HostingOptions opts;
        opts.policy = policy;
        opts.order = order;
        opts.shuffle_seed = static_cast<std::uint64_t>(trial);
        ResidualState got_state = state;
        ResidualState want_state = state;
        const auto got = run_hosting(venv, got_state, opts);
        const auto want = reference_hosting(venv, want_state, opts, tie_picks);
        const auto where = ::testing::Message()
                           << "trial " << trial << ", policy "
                           << static_cast<int>(policy) << ", order "
                           << static_cast<int>(order);
        ASSERT_EQ(got.ok, want.ok) << where << ": " << got.detail;
        ASSERT_EQ(got.guest_host, want.guest_host) << where;
        for (const NodeId h : cluster.hosts()) {
          ASSERT_EQ(got_state.residual_proc(h), want_state.residual_proc(h))
              << where;
          ASSERT_EQ(got_state.residual_mem(h), want_state.residual_mem(h))
              << where;
          ASSERT_EQ(got_state.residual_stor(h), want_state.residual_stor(h))
              << where;
        }
        (got.ok ? hosted : failed) += 1;
      }
    }
  }
  // The battery reaches successes, failures and NodeId-decided ties.
  EXPECT_GT(hosted, 300u);
  EXPECT_GT(failed, 100u);
  EXPECT_GT(tie_picks, 1000u);
}

// ---- The Eqs. 2-3 infeasibility certificate.

/// A small instance whose memory and storage are whole tenths: `*_t` holds
/// the exact decimal values in tenths, the cluster and venv hold t / 10.0,
/// which binary floating point cannot represent exactly.
struct TenthsInstance {
  std::vector<std::array<int, 2>> host_t;   // {mem, stor} per host
  std::vector<std::array<int, 2>> guest_t;  // {mem, stor} per guest

  [[nodiscard]] model::PhysicalCluster cluster() const {
    std::vector<model::HostCapacity> caps;
    for (const auto& h : host_t) caps.push_back({1000, h[0] / 10.0, h[1] / 10.0});
    return line_cluster(std::move(caps));
  }
  [[nodiscard]] VirtualEnvironment venv() const {
    VirtualEnvironment v;
    for (const auto& g : guest_t) v.add_guest({10, g[0] / 10.0, g[1] / 10.0});
    return v;
  }
};

/// Every assignment of guests to hosts, by brute force: whether one meets
/// Eqs. 2-3 in exact decimal arithmetic, and whether one passes the
/// sequential fits()/place() checks the mappers make.
struct PackingOracle {
  bool exact = false;
  bool sequential = false;

  explicit PackingOracle(const TenthsInstance& inst) {
    const auto cluster = inst.cluster();
    const auto venv = inst.venv();
    const std::size_t hosts = inst.host_t.size();
    const std::size_t guests = inst.guest_t.size();
    std::vector<std::size_t> assign(guests, 0);
    while (true) {
      std::vector<std::array<int, 2>> used(hosts, {0, 0});
      for (std::size_t g = 0; g < guests; ++g) {
        used[assign[g]][0] += inst.guest_t[g][0];
        used[assign[g]][1] += inst.guest_t[g][1];
      }
      bool ok = true;
      for (std::size_t h = 0; h < hosts; ++h) {
        ok = ok && used[h][0] <= inst.host_t[h][0] &&
             used[h][1] <= inst.host_t[h][1];
      }
      exact = exact || ok;
      ResidualState st(cluster);
      bool placed = true;
      for (std::size_t g = 0; g < guests && placed; ++g) {
        const auto& req = venv.guest(GuestId{static_cast<unsigned>(g)});
        const NodeId host = cluster.hosts()[assign[g]];
        placed = st.fits(req, host);
        if (placed) st.place(req, host);
      }
      sequential = sequential || placed;
      std::size_t i = 0;
      while (i < guests && ++assign[i] == hosts) assign[i++] = 0;
      if (i == guests) break;
    }
  }
};

TEST(CertifyInfeasible, NeverFiresOnAPackableInstance) {
  util::Rng rng(2026);
  std::size_t certified = 0;
  std::size_t infeasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    TenthsInstance inst;
    const std::size_t hosts = 1 + rng.index(4);
    const std::size_t guests = 1 + rng.index(6);
    for (std::size_t h = 0; h < hosts; ++h) {
      inst.host_t.push_back({static_cast<int>(rng.index(31)),
                             static_cast<int>(rng.index(31))});
    }
    for (std::size_t g = 0; g < guests; ++g) {
      inst.guest_t.push_back({static_cast<int>(1 + rng.index(12)),
                              static_cast<int>(1 + rng.index(12))});
    }
    const PackingOracle oracle(inst);
    infeasible += oracle.exact ? 0 : 1;
    const auto cert = core::certify_infeasible(inst.cluster(), inst.venv());
    if (!cert.has_value()) continue;
    ++certified;
    EXPECT_FALSE(oracle.exact) << "trial " << trial << ": " << cert->detail;
    EXPECT_FALSE(oracle.sequential) << "trial " << trial << ": " << cert->detail;
  }
  // The seeded sweep reaches both sides of the certificate, and the
  // packing search certifies every instance no assignment packs.
  EXPECT_GT(certified, 100u);
  EXPECT_EQ(certified, infeasible);
}

TEST(CertifyInfeasible, ExactOnRepeatedGuestsAndHosts) {
  // Demands and capacities from a few values each, so that identical
  // guests and hosts with equal residuals, which the search tries once,
  // are common.
  util::Rng rng(2027);
  const int host_mem[] = {10, 12, 20};
  const int host_stor[] = {10, 20};
  const int guest_mem[] = {3, 4, 6, 7};
  const int guest_stor[] = {3, 6};
  std::size_t certified = 0;
  std::size_t packable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    TenthsInstance inst;
    const std::size_t hosts = 1 + rng.index(4);
    const std::size_t guests = 1 + rng.index(6);
    for (std::size_t h = 0; h < hosts; ++h) {
      inst.host_t.push_back({host_mem[rng.index(3)], host_stor[rng.index(2)]});
    }
    for (std::size_t g = 0; g < guests; ++g) {
      inst.guest_t.push_back(
          {guest_mem[rng.index(4)], guest_stor[rng.index(2)]});
    }
    const PackingOracle oracle(inst);
    const auto cert = core::certify_infeasible(inst.cluster(), inst.venv());
    EXPECT_EQ(cert.has_value(), !oracle.exact)
        << "trial " << trial << ": " << (cert ? cert->detail : "no cert");
    if (cert.has_value()) {
      EXPECT_FALSE(oracle.sequential) << "trial " << trial;
      ++certified;
    }
    if (oracle.exact) ++packable;
  }
  EXPECT_GT(certified, 50u);
  EXPECT_GT(packable, 50u);
}

TEST(CertifyInfeasible, NegativeDemandsNeverFire) {
  // One 100 MB host: a guest of -50 MB placed first leaves 150 MB, room
  // for the 120-MB guest, so fits()/place() pack the pair in that order.
  const auto cluster = line_cluster({{1000, 100, 100}});
  VirtualEnvironment venv;
  const GuestId frees = venv.add_guest({10, -50, 1});
  const GuestId big = venv.add_guest({10, 120, 1});
  ResidualState st(cluster);
  const NodeId host = cluster.hosts()[0];
  ASSERT_TRUE(st.fits(venv.guest(frees), host));
  st.place(venv.guest(frees), host);
  ASSERT_TRUE(st.fits(venv.guest(big), host));
  const auto cert = core::certify_infeasible(cluster, venv);
  EXPECT_FALSE(cert.has_value()) << cert->detail;

  // The same for storage.
  VirtualEnvironment stor;
  stor.add_guest({10, 1, -50});
  stor.add_guest({10, 1, 120});
  EXPECT_FALSE(core::certify_infeasible(cluster, stor));

  // And for the packing search: three 60-MB guests on two 100-MB hosts
  // pack once a -20 MB guest has made room on one of them.
  const auto two = line_cluster(2, {1000, 100, 100});
  VirtualEnvironment pack;
  for (const double mem : {60.0, 60.0, 60.0, -20.0}) {
    pack.add_guest({10, mem, 1});
  }
  EXPECT_FALSE(core::certify_infeasible(two, pack));
}

TEST(CertifyInfeasible, ExactFitsInTenthsAreNotCertified) {
  // Hosts sized to exactly the tenths assigned to them: the instance fits
  // in decimal arithmetic, however the binary sums round.
  util::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    TenthsInstance inst;
    const std::size_t hosts = 1 + rng.index(4);
    const std::size_t guests = 1 + rng.index(6);
    inst.host_t.assign(hosts, {0, 0});
    for (std::size_t g = 0; g < guests; ++g) {
      const std::array<int, 2> req{static_cast<int>(1 + rng.index(9)),
                                   static_cast<int>(1 + rng.index(9))};
      inst.guest_t.push_back(req);
      auto& host = inst.host_t[rng.index(hosts)];
      host[0] += req[0];
      host[1] += req[1];
    }
    ASSERT_TRUE(PackingOracle(inst).exact);
    const auto cert = core::certify_infeasible(inst.cluster(), inst.venv());
    EXPECT_FALSE(cert.has_value()) << "trial " << trial << ": " << cert->detail;
  }
  // Ten guests of 0.1 MB on one 1.0 MB host: the binary sum of 0.1 ten
  // times is 0.9999999999999999, and of 0.1, 0.2 is 0.30000000000000004.
  TenthsInstance ten{{{10, 10}}, std::vector<std::array<int, 2>>(10, {1, 1})};
  EXPECT_FALSE(core::certify_infeasible(ten.cluster(), ten.venv()));
  TenthsInstance pair{{{3, 3}}, {{1, 1}, {2, 2}}};
  EXPECT_FALSE(core::certify_infeasible(pair.cluster(), pair.venv()));
}

TEST(CertifyInfeasible, NamesTheBindingConstraintAndGuest) {
  // Aggregate memory: 3 x 0.4 MB against 2 hosts of 0.5 MB.
  TenthsInstance mem{{{5, 50}, {5, 50}}, {{4, 1}, {4, 1}, {4, 1}}};
  auto cert = core::certify_infeasible(mem.cluster(), mem.venv());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->constraint, core::FitConstraint::kMemory);
  EXPECT_FALSE(cert->guest.valid());
  EXPECT_NE(cert->detail.find("Eq. 2"), std::string::npos) << cert->detail;

  // Guest 1 needs more storage than any host has.
  TenthsInstance stor{{{50, 5}, {50, 6}}, {{1, 1}, {1, 7}}};
  cert = core::certify_infeasible(stor.cluster(), stor.venv());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->constraint, core::FitConstraint::kStorage);
  EXPECT_EQ(cert->guest, g(1));
  EXPECT_NE(cert->detail.find("Eq. 3"), std::string::npos) << cert->detail;

  // Guest 0 fits one host's memory and the other's storage, never both.
  TenthsInstance both{{{50, 5}, {5, 50}}, {{9, 9}}};
  cert = core::certify_infeasible(both.cluster(), both.venv());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->constraint, core::FitConstraint::kMemoryOrStorage);
  EXPECT_EQ(cert->guest, g(0));
  EXPECT_NE(cert->detail.find("Eq. 2"), std::string::npos) << cert->detail;
  EXPECT_NE(cert->detail.find("Eq. 3"), std::string::npos) << cert->detail;

  // Three 0.6 MB guests on two 1.0 MB hosts: each fits alone and the
  // totals fit, but any two of them overflow a host.
  TenthsInstance pack{{{10, 50}, {10, 50}}, {{6, 1}, {6, 1}, {6, 1}}};
  cert = core::certify_infeasible(pack.cluster(), pack.venv());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->constraint, core::FitConstraint::kMemoryOrStorage);
  EXPECT_FALSE(cert->guest.valid());
  EXPECT_NE(cert->detail.find("Eq. 2 and Eq. 3"), std::string::npos)
      << cert->detail;
  EXPECT_NE(cert->detail.find("3 guests"), std::string::npos) << cert->detail;
}

}  // namespace
