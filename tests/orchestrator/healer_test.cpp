// Tests for the Healer: transactional repair after host/link failures,
// Degraded tenancy, the parked queue with exponential backoff, the
// independent invariant auditor, and failure-laden replay determinism.
#include <gtest/gtest.h>

#include "core/repair.h"
#include "core/validator.h"
#include "io/trace.h"
#include "orchestrator/healer.h"
#include "orchestrator/orchestrator.h"
#include "testing/fixtures.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using orchestrator::HealAction;
using orchestrator::Healer;
using orchestrator::HealerOptions;
using workload::EventKind;
using workload::TenantEvent;

TenantEvent element_event(EventKind kind, double t, std::uint32_t element) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = kind;
  ev.element = element;
  return ev;
}

/// Two linked guests of `mem_mb` each.
model::VirtualEnvironment pair_venv(double mem_mb) {
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, mem_mb, 100});
  const GuestId b = venv.add_guest({10, mem_mb, 100});
  venv.add_link(a, b, {1.0, 60.0});
  return venv;
}

model::VirtualEnvironment solo_venv(double mem_mb) {
  model::VirtualEnvironment venv;
  venv.add_guest({10, mem_mb, 100});
  return venv;
}

TEST(HealerTest, HostFailureHealsByMovingGuests) {
  emulator::TenancyManager mgr(line_cluster(3, {1000, 4096, 4096}));
  const auto admitted = mgr.admit("t7", pair_venv(1500.0), 1);
  ASSERT_TRUE(admitted.ok()) << admitted.detail;
  Healer::LiveMap live{{7, *admitted.tenant}};
  Healer healer;

  const NodeId victim = mgr.tenant(*admitted.tenant)->mapping.guest_host[0];
  const auto records = healer.on_event(
      mgr, live, element_event(EventKind::kHostFail, 1.0, victim.value()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kHealed);
  EXPECT_GE(records[0].guests_moved, 1u);
  EXPECT_EQ(records[0].dark_links, 0u);

  ASSERT_EQ(live.count(7), 1u);
  const auto* tenant = mgr.tenant(live.at(7));
  EXPECT_TRUE(
      core::mapping_avoids_node(mgr.cluster(), tenant->mapping, victim));
  EXPECT_TRUE(
      core::validate_mapping(mgr.cluster(), tenant->venv, tenant->mapping)
          .ok());
  EXPECT_TRUE(healer.audit(mgr, live).empty());
  EXPECT_TRUE(mgr.has_failed_elements());

  // Recovery clears the mask; nothing is degraded or parked, so no records.
  EXPECT_TRUE(healer
                  .on_event(mgr, live,
                            element_event(EventKind::kHostRecover, 2.0,
                                          victim.value()))
                  .empty());
  EXPECT_FALSE(mgr.has_failed_elements());
}

TEST(HealerTest, UnroutableLinkDegradesThenRestores) {
  // Two hosts joined by one edge: the tenant spans both, and when the only
  // edge dies its link cannot re-route.  Guests survive; the link goes dark.
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const auto admitted = mgr.admit("t3", pair_venv(3000.0), 1);
  ASSERT_TRUE(admitted.ok()) << admitted.detail;
  Healer::LiveMap live{{3, *admitted.tenant}};
  Healer healer;

  auto records =
      healer.on_event(mgr, live, element_event(EventKind::kLinkFail, 1.0, 0));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kDegraded);
  EXPECT_EQ(records[0].dark_links, 1u);
  EXPECT_TRUE(healer.is_degraded(3));
  EXPECT_EQ(healer.degraded_count(), 1u);
  EXPECT_TRUE(mgr.tenant(live.at(3))->mapping.link_paths[0].empty());
  // The dark link is declared, so the independent audit stays clean.
  EXPECT_TRUE(healer.audit(mgr, live).empty());

  // The edge comes back: the opportunistic re-heal routes the link again.
  records = healer.on_event(mgr, live,
                            element_event(EventKind::kLinkRecover, 5.0, 0));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kRestored);
  EXPECT_EQ(healer.degraded_count(), 0u);
  const auto* tenant = mgr.tenant(live.at(3));
  EXPECT_FALSE(tenant->mapping.link_paths[0].empty());
  EXPECT_TRUE(
      core::validate_mapping(mgr.cluster(), tenant->venv, tenant->mapping)
          .ok());
  EXPECT_TRUE(healer.audit(mgr, live).empty());
}

TEST(HealerTest, CriticalLinkEvictsInsteadOfGoingDark) {
  // The best-effort twin of this scenario (UnroutableLinkDegradesThen-
  // Restores) keeps the tenant Degraded.  With the link marked critical
  // the repair must fail instead, so the healer evicts and parks.
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({10, 3000.0, 100});
  const GuestId b = venv.add_guest({10, 3000.0, 100});
  venv.add_link(a, b, {1.0, 60.0, /*critical=*/true});
  const auto admitted = mgr.admit("t5", venv, 1);
  ASSERT_TRUE(admitted.ok()) << admitted.detail;
  Healer::LiveMap live{{5, *admitted.tenant}};
  Healer healer;

  const auto records =
      healer.on_event(mgr, live, element_event(EventKind::kLinkFail, 1.0, 0));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kParked);
  EXPECT_FALSE(healer.is_degraded(5));
  EXPECT_EQ(healer.parked_count(), 1u);
  EXPECT_EQ(live.count(5), 0u);
  EXPECT_TRUE(healer.audit(mgr, live).empty());

  // Recovery re-admits the parked tenant, links fully routed.
  const auto back = healer.on_event(
      mgr, live, element_event(EventKind::kLinkRecover, 3.0, 0));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].action, HealAction::kReadmitted);
  EXPECT_EQ(live.count(5), 1u);
  EXPECT_FALSE(mgr.tenant(live.at(5))->mapping.link_paths[0].empty());
}

TEST(HealerTest, BlastGroupHealsAsOneTransaction) {
  // Two racks of two hosts (switch_tree(4, 2, 2)); a blast kills one leaf
  // switch with its two hosts and every incident link at once.  All masks
  // must flip before any healing, every impacted tenant is handled exactly
  // once, nothing may land back on a group member, and the single recover
  // restores the whole group.
  const auto cluster = model::PhysicalCluster::build(
      topology::switch_tree(4, 2, 2),
      std::vector<model::HostCapacity>(4, {1000, 4096, 4096}), {1000.0, 5.0});
  emulator::TenancyManager mgr(cluster);
  Healer::LiveMap live;
  for (std::uint32_t k = 0; k < 2; ++k) {
    const auto admitted =
        mgr.admit("t" + std::to_string(k), pair_venv(1500.0), k + 1);
    ASSERT_TRUE(admitted.ok()) << admitted.detail;
    live[k] = *admitted.tenant;
  }

  // Take a real generated blast so the group lists match the topology.
  workload::FailureOptions fo;
  fo.horizon = 200.0;
  fo.blast_mttf = 50.0;
  std::vector<TenantEvent> blasts;
  for (const TenantEvent& ev :
       workload::generate_failures(fo, cluster, 11)) {
    if (ev.group_hosts.size() == 2) blasts.push_back(ev);  // a leaf switch
    if (blasts.size() == 2) break;                         // fail + recover
  }
  ASSERT_EQ(blasts.size(), 2u);
  ASSERT_EQ(blasts[0].kind, EventKind::kBlastFail);
  ASSERT_EQ(blasts[1].kind, EventKind::kBlastRecover);

  Healer healer;
  TenantEvent fail = blasts[0];
  fail.time = 1.0;
  healer.on_event(mgr, live, fail);
  EXPECT_TRUE(mgr.has_failed_elements());
  // Whatever survived, no committed mapping touches any group member, and
  // the independent audit is clean after the one-shot group application.
  for (const auto& [key, id] : live) {
    const auto* tenant = mgr.tenant(id);
    EXPECT_TRUE(core::mapping_avoids_node(mgr.cluster(), tenant->mapping,
                                          NodeId{fail.element}));
    for (const std::uint32_t h : fail.group_hosts) {
      EXPECT_TRUE(core::mapping_avoids_node(mgr.cluster(), tenant->mapping,
                                            NodeId{h}));
    }
    for (const std::uint32_t l : fail.group_links) {
      EXPECT_TRUE(core::mapping_avoids_edge(tenant->mapping, EdgeId{l}));
    }
  }
  EXPECT_TRUE(healer.audit(mgr, live).empty());

  // One recover clears every member mask and re-heals opportunistically.
  TenantEvent recover = blasts[1];
  recover.time = 5.0;
  healer.on_event(mgr, live, recover);
  EXPECT_FALSE(mgr.has_failed_elements());
  EXPECT_TRUE(healer.audit(mgr, live).empty());
  EXPECT_EQ(healer.degraded_count(), 0u);
}

TEST(HealerTest, EvictionParksThenReadmitsOnRecovery) {
  // Each host fits one 3000 MB guest; when one host dies its tenant cannot
  // be re-placed and is parked, then re-admitted once the host returns.
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const auto a = mgr.admit("a", solo_venv(3000.0), 1);
  const auto b = mgr.admit("b", solo_venv(3000.0), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  Healer::LiveMap live{{1, *a.tenant}, {2, *b.tenant}};
  Healer healer;

  const NodeId victim = mgr.tenant(*b.tenant)->mapping.guest_host[0];
  auto records = healer.on_event(
      mgr, live, element_event(EventKind::kHostFail, 1.0, victim.value()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kParked);
  EXPECT_NE(records[0].error, core::MapErrorCode::kNone);
  EXPECT_EQ(live.count(2), 0u);
  EXPECT_EQ(healer.parked_count(), 1u);
  EXPECT_TRUE(healer.audit(mgr, live).empty());

  records = healer.on_event(
      mgr, live, element_event(EventKind::kHostRecover, 3.0, victim.value()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kReadmitted);
  EXPECT_DOUBLE_EQ(records[0].outage, 2.0);
  EXPECT_EQ(live.count(2), 1u);
  EXPECT_EQ(healer.parked_count(), 0u);
  EXPECT_TRUE(healer.audit(mgr, live).empty());
}

TEST(HealerTest, BackoffGatesRetriesAndBudgetDrops) {
  HealerOptions opts;
  opts.max_heal_attempts = 2;
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const auto a = mgr.admit("a", solo_venv(3000.0), 1);
  const auto b = mgr.admit("b", solo_venv(3000.0), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  Healer::LiveMap live{{1, *a.tenant}, {2, *b.tenant}};
  Healer healer(opts);

  const NodeId victim = mgr.tenant(*b.tenant)->mapping.guest_host[0];
  (void)healer.on_event(
      mgr, live, element_event(EventKind::kHostFail, 1.0, victim.value()));
  ASSERT_EQ(healer.parked_count(), 1u);

  // The host stays down.  Attempt 1 fails silently and arms the backoff
  // gate at t=3 (2 + 2^0); a poll before the gate is a no-op.
  EXPECT_TRUE(healer.on_capacity_freed(mgr, live, 2.0).empty());
  EXPECT_TRUE(healer.on_capacity_freed(mgr, live, 2.5).empty());
  EXPECT_EQ(healer.parked_count(), 1u);

  // Attempt 2 exhausts the budget: the tenant is dropped with its outage.
  const auto records = healer.on_capacity_freed(mgr, live, 4.0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].action, HealAction::kDropped);
  EXPECT_DOUBLE_EQ(records[0].outage, 3.0);
  EXPECT_EQ(healer.parked_count(), 0u);
}

TEST(HealerTest, AbandonParkedReturnsOutage) {
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const auto a = mgr.admit("a", solo_venv(3000.0), 1);
  const auto b = mgr.admit("b", solo_venv(3000.0), 2);
  ASSERT_TRUE(a.ok() && b.ok());
  Healer::LiveMap live{{1, *a.tenant}, {2, *b.tenant}};
  Healer healer;
  const NodeId victim = mgr.tenant(*b.tenant)->mapping.guest_host[0];
  (void)healer.on_event(
      mgr, live, element_event(EventKind::kHostFail, 1.0, victim.value()));
  ASSERT_EQ(healer.parked_count(), 1u);

  EXPECT_FALSE(healer.abandon_parked(99).has_value());
  const auto parked = healer.abandon_parked(2);
  ASSERT_TRUE(parked.has_value());
  EXPECT_DOUBLE_EQ(5.0 - parked->parked_at, 4.0);
  EXPECT_EQ(healer.parked_count(), 0u);
}

TEST(HealerTest, AuditCatchesUnhealedFailure) {
  // Flip a mask behind the Healer's back: the auditor must flag the guest
  // stranded on the failed host (and any path over its edges) even though
  // the manager's own bookkeeping is untouched.
  emulator::TenancyManager mgr(line_cluster(2, {1000, 4096, 4096}));
  const auto admitted = mgr.admit("t", pair_venv(3000.0), 1);
  ASSERT_TRUE(admitted.ok());
  Healer::LiveMap live{{0, *admitted.tenant}};
  Healer healer;
  EXPECT_TRUE(healer.audit(mgr, live).empty());

  mgr.set_node_down(mgr.tenant(*admitted.tenant)->mapping.guest_host[0],
                    true);
  EXPECT_FALSE(healer.audit(mgr, live).empty());
}

TEST(HealerTest, OutOfRangeElementIsIgnored) {
  emulator::TenancyManager mgr(line_cluster(2));
  Healer::LiveMap live;
  Healer healer;
  EXPECT_TRUE(
      healer.on_event(mgr, live, element_event(EventKind::kHostFail, 1.0, 99))
          .empty());
  EXPECT_TRUE(
      healer.on_event(mgr, live, element_event(EventKind::kLinkFail, 1.0, 99))
          .empty());
  EXPECT_FALSE(mgr.has_failed_elements());

  // A blast whose own switch id is out of range is ignored whole, even
  // though every group member is valid.
  TenantEvent blast = element_event(EventKind::kBlastFail, 1.0, 99);
  blast.group_hosts = {0, 1};
  blast.group_links = {0};
  EXPECT_TRUE(healer.on_event(mgr, live, blast).empty());
  EXPECT_FALSE(mgr.has_failed_elements());

  // A power event's element is a domain id: its out-of-range group member
  // is skipped and the valid one still goes down.
  TenantEvent power = element_event(EventKind::kPowerFail, 1.0, 7);
  power.group_hosts = {1, 99};
  EXPECT_TRUE(healer.on_event(mgr, live, power).empty());
  EXPECT_TRUE(mgr.is_node_down(NodeId{1}));
  EXPECT_FALSE(mgr.is_node_down(NodeId{0}));
  EXPECT_EQ(mgr.failed_elements().nodes.size(), 1u);
  EXPECT_TRUE(mgr.failed_elements().links.empty());
}

/// Churn + failures on the paper's switched cluster.
workload::ChurnTrace failure_trace(const model::PhysicalCluster& cluster,
                                   std::uint64_t seed) {
  workload::ChurnOptions opts;
  opts.arrival_rate = 0.5;
  opts.horizon = 40.0;
  opts.mean_lifetime = 12.0;
  opts.min_guests = 4;
  opts.max_guests = 8;
  opts.density = 0.2;
  opts.profile = workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1536.0};
  workload::ChurnTrace trace =
      workload::generate_churn(opts, util::derive_seed(seed, 1));
  workload::FailureOptions fopts;
  fopts.horizon = opts.horizon;
  fopts.host_mttf = 25.0;
  fopts.host_mttr = 4.0;
  fopts.link_mttf = 20.0;
  fopts.link_mttr = 4.0;
  workload::merge_events(
      trace,
      workload::generate_failures(fopts, cluster, util::derive_seed(seed, 2)));
  return trace;
}

TEST(OrchestratorFailureTest, FailureLadenReplayIsDeterministicAndAudited) {
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 11);
  const auto trace = failure_trace(cluster, 20090922);

  orchestrator::Orchestrator first(cluster, trace.profile);
  orchestrator::Orchestrator second(cluster, trace.profile);
  const std::string sig = first.run(trace).decision_signature();
  EXPECT_EQ(second.run(trace).decision_signature(), sig);

  const auto& report = first.report();
  EXPECT_GT(report.host_failures + report.link_failures, 0u);
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_TRUE(report.invariant_violations.empty())
      << report.invariant_violations.front();
  EXPECT_GE(report.tenant_minutes_lost, 0.0);
  EXPECT_GE(report.degraded_minutes, 0.0);

  // Record -> trace -> replay, failures included.
  const auto reloaded = io::read_trace_or_throw(io::write_trace(trace));
  orchestrator::Orchestrator replayed(cluster, reloaded.profile);
  EXPECT_EQ(replayed.run(reloaded).decision_signature(), sig);
}

TEST(OrchestratorFailureTest, DropReadmitPolicyIsDeterministicAndAudited) {
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 11);
  const auto trace = failure_trace(cluster, 31337);
  orchestrator::OrchestratorOptions opts;
  opts.healer.policy = orchestrator::HealPolicy::kDropReadmit;

  orchestrator::Orchestrator first(cluster, trace.profile, opts);
  orchestrator::Orchestrator second(cluster, trace.profile, opts);
  const std::string sig = first.run(trace).decision_signature();
  EXPECT_EQ(second.run(trace).decision_signature(), sig);
  EXPECT_TRUE(first.report().invariant_violations.empty())
      << first.report().invariant_violations.front();
}

}  // namespace
