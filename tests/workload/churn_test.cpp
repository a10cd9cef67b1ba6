// Tests for the churn generator: determinism, stream well-formedness, and
// the event-venv materialization helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "testing/fixtures.h"
#include "workload/churn.h"

namespace {

using namespace hmn;
using workload::ChurnOptions;
using workload::EventKind;
using workload::TenantEvent;

ChurnOptions small_options() {
  ChurnOptions opts;
  opts.arrival_rate = 0.5;
  opts.horizon = 60.0;
  opts.mean_lifetime = 12.0;
  opts.min_guests = 3;
  opts.max_guests = 6;
  opts.density = 0.25;
  opts.profile = workload::high_level_profile();
  opts.grow_probability = 0.5;
  opts.max_grow_guests = 3;
  return opts;
}

TEST(Churn, IdenticalSeedsGiveIdenticalStreams) {
  const auto a = workload::generate_churn(small_options(), 42);
  const auto b = workload::generate_churn(small_options(), 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
}

TEST(Churn, DifferentSeedsDiverge) {
  const auto a = workload::generate_churn(small_options(), 42);
  const auto b = workload::generate_churn(small_options(), 43);
  EXPECT_NE(a.events, b.events);
}

TEST(Churn, StreamIsSortedAndLifecycleConsistent) {
  for (const auto lifetime : {workload::LifetimeDistribution::kExponential,
                              workload::LifetimeDistribution::kPareto}) {
    ChurnOptions opts = small_options();
    opts.lifetime = lifetime;
    const auto trace = workload::generate_churn(opts, 7);
    ASSERT_FALSE(trace.events.empty());

    double prev = 0.0;
    std::map<std::uint32_t, double> arrived, departed;
    std::map<std::uint32_t, std::size_t> grows;
    for (const TenantEvent& ev : trace.events) {
      EXPECT_GE(ev.time, prev);
      prev = ev.time;
      switch (ev.kind) {
        case EventKind::kArrive:
          EXPECT_FALSE(arrived.count(ev.tenant)) << "duplicate arrival";
          EXPECT_GE(ev.guest_count, opts.min_guests);
          EXPECT_LE(ev.guest_count, opts.max_guests);
          arrived[ev.tenant] = ev.time;
          break;
        case EventKind::kGrow:
          EXPECT_TRUE(arrived.count(ev.tenant));
          EXPECT_FALSE(departed.count(ev.tenant));
          EXPECT_GE(ev.add_guests, 1u);
          ++grows[ev.tenant];
          break;
        case EventKind::kDepart:
          EXPECT_TRUE(arrived.count(ev.tenant));
          EXPECT_FALSE(departed.count(ev.tenant)) << "duplicate departure";
          EXPECT_GE(ev.time, arrived[ev.tenant]);
          departed[ev.tenant] = ev.time;
          break;
        default:
          FAIL() << "generate_churn emitted a failure event";
      }
    }
    EXPECT_EQ(arrived.size(), departed.size())
        << "every tenant departs, even past the horizon";
    for (const auto& [tenant, n] : grows) EXPECT_LE(n, 1u);
  }
}

TEST(Churn, EventVenvIsDeterministic) {
  const auto trace = workload::generate_churn(small_options(), 11);
  for (const TenantEvent& ev : trace.events) {
    if (ev.kind != EventKind::kArrive) continue;
    const auto a = workload::make_event_venv(trace.profile, ev);
    const auto b = workload::make_event_venv(trace.profile, ev);
    ASSERT_EQ(a.guest_count(), ev.guest_count);
    ASSERT_EQ(a.guest_count(), b.guest_count());
    ASSERT_EQ(a.link_count(), b.link_count());
    for (std::size_t g = 0; g < a.guest_count(); ++g) {
      const auto id = GuestId{static_cast<GuestId::underlying_type>(g)};
      EXPECT_DOUBLE_EQ(a.guest(id).mem_mb, b.guest(id).mem_mb);
      EXPECT_DOUBLE_EQ(a.guest(id).proc_mips, b.guest(id).proc_mips);
    }
  }
}

TEST(Churn, ApplyGrowthPreservesBaseAndConnectsNewGuests) {
  const auto profile = workload::high_level_profile();
  model::VirtualEnvironment base;
  const GuestId a = base.add_guest({75, 192, 150});
  const GuestId b = base.add_guest({80, 200, 160});
  base.add_link(a, b, {0.8, 45.0});

  TenantEvent ev;
  ev.kind = EventKind::kGrow;
  ev.add_guests = 3;
  ev.add_links = 2;
  ev.seed = 99;
  const auto grown = workload::apply_growth(base, profile, ev);
  EXPECT_EQ(grown.guest_count(), 5u);
  // Base links first and unchanged, then one attachment per new guest,
  // then the extra links.
  EXPECT_EQ(grown.link_count(), 1u + 3u + 2u);
  EXPECT_DOUBLE_EQ(grown.guest(a).mem_mb, 192.0);
  EXPECT_DOUBLE_EQ(grown.guest(b).mem_mb, 200.0);
  EXPECT_DOUBLE_EQ(grown.link(VirtLinkId{0}).bandwidth_mbps, 0.8);
  // New guests are reachable: each has at least one incident link.
  for (std::size_t g = 2; g < grown.guest_count(); ++g) {
    EXPECT_FALSE(
        grown.links_of(GuestId{static_cast<GuestId::underlying_type>(g)})
            .empty());
  }
  // Deterministic in the event seed.
  const auto again = workload::apply_growth(base, profile, ev);
  EXPECT_EQ(again.guest_count(), grown.guest_count());
  EXPECT_DOUBLE_EQ(again.guest(GuestId{3}).mem_mb,
                   grown.guest(GuestId{3}).mem_mb);
}

// --- Failure streams (alternating-renewal fault injection) ---

workload::FailureOptions failure_options() {
  workload::FailureOptions opts;
  opts.horizon = 50.0;
  opts.host_mttf = 20.0;
  opts.host_mttr = 3.0;
  opts.link_mttf = 15.0;
  opts.link_mttr = 3.0;
  return opts;
}

TEST(Failures, StreamIsDeterministicPerSeed) {
  const auto cluster = hmn::test::line_cluster(4);
  const auto a = workload::generate_failures(failure_options(), cluster, 9);
  const auto b = workload::generate_failures(failure_options(), cluster, 9);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, workload::generate_failures(failure_options(), cluster, 10));
}

TEST(Failures, EveryElementAlternatesFailRecover) {
  // Per element the stream must be FAIL, RECOVER, FAIL, RECOVER, ... with
  // strictly increasing times, ending on a RECOVER — a failure past the
  // horizon still emits its recovery so no element is left dead forever.
  const auto cluster = hmn::test::line_cluster(4);
  const auto events =
      workload::generate_failures(failure_options(), cluster, 17);
  std::map<std::pair<bool, std::uint32_t>, int> pending;  // (is_host, id)
  std::map<std::pair<bool, std::uint32_t>, double> last_time;
  for (const TenantEvent& ev : events) {
    ASSERT_TRUE(workload::is_failure_event(ev.kind));
    const bool is_host = ev.kind == EventKind::kHostFail ||
                         ev.kind == EventKind::kHostRecover;
    const bool is_fail =
        ev.kind == EventKind::kHostFail || ev.kind == EventKind::kLinkFail;
    if (is_host) {
      EXPECT_LT(ev.element, cluster.node_count());
    } else {
      EXPECT_LT(ev.element, cluster.link_count());
    }
    const auto key = std::make_pair(is_host, ev.element);
    EXPECT_EQ(pending[key], is_fail ? 0 : 1)
        << "element " << ev.element << " did not alternate";
    pending[key] += is_fail ? 1 : -1;
    if (last_time.count(key)) {
      EXPECT_GE(ev.time, last_time[key]);
    }
    last_time[key] = ev.time;
    EXPECT_GE(ev.time, 0.0);
  }
  for (const auto& [key, open] : pending) {
    EXPECT_EQ(open, 0) << "unrecovered element " << key.second;
  }
}

TEST(Failures, SameInstantRecoverSortsBeforeFail) {
  // Regression for the event_before tie-break: when a repair of one
  // renewal interval completes at the exact instant the next failure of
  // the same element strikes, the recover must be processed first —
  // otherwise the stale recover would resurrect the freshly dead element.
  TenantEvent recover;
  recover.time = 12.5;
  recover.kind = EventKind::kHostRecover;
  recover.element = 3;
  TenantEvent fail = recover;
  fail.kind = EventKind::kHostFail;
  EXPECT_TRUE(workload::event_before(recover, fail));
  EXPECT_FALSE(workload::event_before(fail, recover));

  recover.kind = EventKind::kLinkRecover;
  fail.kind = EventKind::kLinkFail;
  EXPECT_TRUE(workload::event_before(recover, fail));
  EXPECT_FALSE(workload::event_before(fail, recover));

  recover.kind = EventKind::kBlastRecover;
  fail.kind = EventKind::kBlastFail;
  EXPECT_TRUE(workload::event_before(recover, fail));
  EXPECT_FALSE(workload::event_before(fail, recover));
}

TEST(Failures, AlternationHoldsUnderEveryMttfDistribution) {
  // Property: whatever the up-time shape, each element's stream is
  // strictly FAIL, RECOVER, FAIL, ... with nondecreasing times and every
  // fail matched by a recover.
  const auto cluster = hmn::test::line_cluster(4);
  for (const auto dist : {workload::MttfDistribution::kExponential,
                          workload::MttfDistribution::kWeibull,
                          workload::MttfDistribution::kLognormal}) {
    workload::FailureOptions opts = failure_options();
    opts.mttf_dist = dist;
    const auto events = workload::generate_failures(opts, cluster, 29);
    ASSERT_FALSE(events.empty()) << workload::to_string(dist);
    std::map<std::pair<bool, std::uint32_t>, int> pending;
    std::map<std::pair<bool, std::uint32_t>, double> last_time;
    for (const TenantEvent& ev : events) {
      const bool is_host = ev.kind == EventKind::kHostFail ||
                           ev.kind == EventKind::kHostRecover;
      const bool is_fail =
          ev.kind == EventKind::kHostFail || ev.kind == EventKind::kLinkFail;
      const auto key = std::make_pair(is_host, ev.element);
      EXPECT_EQ(pending[key], is_fail ? 0 : 1)
          << workload::to_string(dist) << " element " << ev.element;
      pending[key] += is_fail ? 1 : -1;
      if (last_time.count(key)) {
        EXPECT_GE(ev.time, last_time[key]);
      }
      last_time[key] = ev.time;
    }
    for (const auto& [key, open] : pending) {
      EXPECT_EQ(open, 0) << workload::to_string(dist) << " unrecovered "
                         << key.second;
    }
  }
}

TEST(Failures, DistributionsProduceDistinctStreamsExponentialUnchanged) {
  // Switching the shape must change the draw, and the exponential path
  // must consume the RNG stream exactly as the pre-distribution generator
  // did (old seeds stay byte-stable): an options struct that never touches
  // mttf_dist equals one that sets kExponential explicitly.
  const auto cluster = hmn::test::line_cluster(4);
  workload::FailureOptions exp_opts = failure_options();
  workload::FailureOptions weibull_opts = failure_options();
  weibull_opts.mttf_dist = workload::MttfDistribution::kWeibull;
  workload::FailureOptions lognorm_opts = failure_options();
  lognorm_opts.mttf_dist = workload::MttfDistribution::kLognormal;

  const auto e = workload::generate_failures(exp_opts, cluster, 31);
  const auto w = workload::generate_failures(weibull_opts, cluster, 31);
  const auto l = workload::generate_failures(lognorm_opts, cluster, 31);
  EXPECT_NE(e, w);
  EXPECT_NE(e, l);
  EXPECT_NE(w, l);

  workload::FailureOptions explicit_exp = failure_options();
  explicit_exp.mttf_dist = workload::MttfDistribution::kExponential;
  EXPECT_EQ(e, workload::generate_failures(explicit_exp, cluster, 31));
}

TEST(Failures, BlastEventsCarrySortedGroupsAndAlternate) {
  // A star cluster: 5 hosts hanging off one switch.  Blast events must
  // target the switch, carry every adjacent host and incident link sorted
  // and duplicate-free, and the recover must repeat its fail's group.
  const auto cluster = model::PhysicalCluster::build(
      topology::star(5),
      std::vector<model::HostCapacity>(5, {1000, 4096, 4096}),
      {1000.0, 5.0});
  workload::FailureOptions opts;
  opts.horizon = 80.0;
  opts.blast_mttf = 20.0;
  opts.blast_mttr = 4.0;
  const auto events = workload::generate_failures(opts, cluster, 37);
  ASSERT_FALSE(events.empty());

  int open = 0;
  std::vector<std::uint32_t> open_hosts, open_links;
  for (const TenantEvent& ev : events) {
    ASSERT_TRUE(ev.kind == EventKind::kBlastFail ||
                ev.kind == EventKind::kBlastRecover);
    EXPECT_FALSE(cluster.is_host(NodeId{ev.element}))
        << "blast element must be a switch";
    EXPECT_FALSE(ev.group_hosts.empty());
    EXPECT_FALSE(ev.group_links.empty());
    EXPECT_TRUE(std::is_sorted(ev.group_hosts.begin(), ev.group_hosts.end()));
    EXPECT_TRUE(std::is_sorted(ev.group_links.begin(), ev.group_links.end()));
    EXPECT_EQ(std::adjacent_find(ev.group_hosts.begin(), ev.group_hosts.end()),
              ev.group_hosts.end());
    EXPECT_EQ(std::adjacent_find(ev.group_links.begin(), ev.group_links.end()),
              ev.group_links.end());
    for (const std::uint32_t h : ev.group_hosts) {
      EXPECT_TRUE(cluster.is_host(NodeId{h}));
    }
    for (const std::uint32_t l : ev.group_links) {
      EXPECT_LT(l, cluster.link_count());
    }
    if (ev.kind == EventKind::kBlastFail) {
      EXPECT_EQ(open, 0);
      open = 1;
      open_hosts = ev.group_hosts;
      open_links = ev.group_links;
    } else {
      EXPECT_EQ(open, 1);
      open = 0;
      EXPECT_EQ(ev.group_hosts, open_hosts);
      EXPECT_EQ(ev.group_links, open_links);
    }
  }
  EXPECT_EQ(open, 0) << "a blast was never recovered";
}

TEST(Failures, ZeroMttfDisablesAClass) {
  const auto cluster = hmn::test::line_cluster(4);
  workload::FailureOptions opts = failure_options();
  opts.host_mttf = 0.0;
  for (const TenantEvent& ev :
       workload::generate_failures(opts, cluster, 21)) {
    EXPECT_TRUE(ev.kind == EventKind::kLinkFail ||
                ev.kind == EventKind::kLinkRecover);
  }
  opts.link_mttf = 0.0;
  EXPECT_TRUE(workload::generate_failures(opts, cluster, 21).empty());
}

TEST(Failures, MergeEventsKeepsCanonicalOrder) {
  const auto cluster = hmn::test::line_cluster(4);
  workload::ChurnTrace trace = workload::generate_churn(small_options(), 3);
  const std::size_t churn_events = trace.events.size();
  auto failures = workload::generate_failures(failure_options(), cluster, 4);
  const std::size_t failure_events = failures.size();
  ASSERT_GT(failure_events, 0u);

  workload::merge_events(trace, std::move(failures));
  EXPECT_EQ(trace.events.size(), churn_events + failure_events);
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_FALSE(
        workload::event_before(trace.events[i], trace.events[i - 1]))
        << "event " << i << " out of canonical order";
  }
}

}  // namespace
