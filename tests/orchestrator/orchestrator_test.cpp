// Tests for the online orchestrator: retry-queue semantics, admission /
// backfill / growth decisions, defragmentation invariants, and trace
// replay determinism.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/validator.h"
#include "io/trace.h"
#include "orchestrator/defrag.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/retry_queue.h"
#include "testing/fixtures.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using orchestrator::Decision;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::PendingTenant;
using orchestrator::RetryQueue;
using workload::EventKind;
using workload::TenantEvent;

/// Degenerate ranges make every generated guest bit-exact predictable.
workload::GuestProfile fixed_profile(double mem_mb, double proc_mips = 100.0) {
  workload::GuestProfile p;
  p.proc_mips = {proc_mips, proc_mips};
  p.mem_mb = {mem_mb, mem_mb};
  p.stor_gb = {100.0, 100.0};
  p.link_bw_mbps = {1.0, 1.0};
  p.link_lat_ms = {60.0, 60.0};
  return p;
}

TenantEvent arrive(double t, std::uint32_t tenant, std::size_t guests,
                   std::uint64_t seed) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = EventKind::kArrive;
  ev.tenant = tenant;
  ev.guest_count = guests;
  ev.density = 0.0;  // spanning tree
  ev.seed = seed;
  return ev;
}

TenantEvent depart(double t, std::uint32_t tenant) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = EventKind::kDepart;
  ev.tenant = tenant;
  return ev;
}

TenantEvent grow(double t, std::uint32_t tenant, std::size_t add_guests,
                 std::size_t add_links, std::uint64_t seed) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = EventKind::kGrow;
  ev.tenant = tenant;
  ev.add_guests = add_guests;
  ev.add_links = add_links;
  ev.seed = seed;
  return ev;
}

TEST(RetryQueueTest, FifoDrainDropAndErase) {
  RetryQueue queue(/*max_attempts=*/3, /*max_size=*/2);
  PendingTenant a;
  a.key = 1;
  a.attempts = 1;
  PendingTenant b;
  b.key = 2;
  b.attempts = 2;
  EXPECT_TRUE(queue.push(a));
  EXPECT_TRUE(queue.push(b));
  EXPECT_TRUE(queue.full());
  // A full queue refuses instead of asserting: the caller turns this into
  // a kRejected decision.
  PendingTenant overflow;
  overflow.key = 3;
  EXPECT_FALSE(queue.push(overflow));
  EXPECT_EQ(queue.size(), 2u);

  // Admit nobody: b reaches 3 attempts and is dropped, a stays.
  auto r = queue.drain([](const PendingTenant&) { return false; });
  EXPECT_TRUE(r.admitted.empty());
  ASSERT_EQ(r.dropped.size(), 1u);
  EXPECT_EQ(r.dropped[0].key, 2u);
  EXPECT_EQ(queue.size(), 1u);

  // Erase the survivor, as if it departed while queued.
  const auto erased = queue.erase(1);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(erased->attempts, 2u);  // incremented by the failed drain
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.erase(1).has_value());

  // FIFO: the first pushed is the first offered.
  PendingTenant c;
  c.key = 7;
  PendingTenant d;
  d.key = 8;
  EXPECT_TRUE(queue.push(c));
  EXPECT_TRUE(queue.push(d));
  std::vector<std::uint32_t> offered;
  (void)queue.drain([&](const PendingTenant& t) {
    offered.push_back(t.key);
    return true;
  });
  EXPECT_EQ(offered, (std::vector<std::uint32_t>{7, 8}));
}

TEST(OrchestratorTest, BackfillsQueuedTenantAfterDeparture) {
  // Two hosts x 4096 MB; each tenant (2 guests x 3000 MB) needs both.
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0));
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  const auto queued = orch.handle(arrive(1.0, 1, 2, 2));
  EXPECT_EQ(queued.decision, Decision::kQueued);
  EXPECT_NE(queued.error, core::MapErrorCode::kNone);
  EXPECT_EQ(orch.handle(depart(3.5, 0)).decision, Decision::kDeparted);

  const auto& report = orch.report();
  ASSERT_EQ(report.decisions.size(), 4u);  // + the backfill admission
  EXPECT_EQ(report.decisions[3].decision, Decision::kAdmittedFromQueue);
  EXPECT_EQ(report.decisions[3].tenant, 1u);
  EXPECT_DOUBLE_EQ(report.decisions[3].queue_wait, 2.5);
  EXPECT_EQ(report.admitted_from_queue, 1u);
  EXPECT_DOUBLE_EQ(report.acceptance_rate(), 1.0);
  EXPECT_EQ(orch.tenancy().tenant_count(), 1u);
}

TEST(OrchestratorTest, DepartWhileQueuedIsAbandoned) {
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0));
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 1, 2, 2)).decision, Decision::kQueued);
  const auto abandoned = orch.handle(depart(4.0, 1));
  EXPECT_EQ(abandoned.decision, Decision::kAbandoned);
  EXPECT_DOUBLE_EQ(abandoned.queue_wait, 3.0);
  EXPECT_EQ(orch.report().abandoned, 1u);
  // The abandoned tenant is gone: later departures are no-ops for it.
  EXPECT_EQ(orch.handle(depart(5.0, 1)).decision, Decision::kNoOp);
}

TEST(OrchestratorTest, DropsTenantAfterRetryBudget) {
  OrchestratorOptions opts;
  opts.retry_max_attempts = 2;
  // Three hosts: tenant 0 takes two, tenant 2 (1 guest) the third.  While 0
  // runs, the 2-guest tenant 1 can never fit (only one host has room), so
  // tenant 2's departure triggers a retry that fails and exhausts its budget.
  Orchestrator orch(line_cluster(3, {1000, 4096, 4096}),
                    fixed_profile(3000.0), opts);
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 1, 2, 2)).decision, Decision::kQueued);
  EXPECT_EQ(orch.handle(arrive(2.0, 2, 1, 3)).decision, Decision::kAdmitted);
  // 2 departs; the drain re-attempts 1 (second attempt) and drops it.
  EXPECT_EQ(orch.handle(depart(3.0, 2)).decision, Decision::kDeparted);
  const auto& report = orch.report();
  EXPECT_EQ(report.dropped, 1u);
  const auto& last = report.decisions.back();
  EXPECT_EQ(last.decision, Decision::kDropped);
  EXPECT_EQ(last.error, core::MapErrorCode::kTriesExhausted);
  EXPECT_DOUBLE_EQ(last.queue_wait, 2.0);
}

TEST(OrchestratorTest, QueueFullRejectsOutright) {
  OrchestratorOptions opts;
  opts.max_queue = 1;
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0), opts);
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 1, 2, 2)).decision, Decision::kQueued);
  EXPECT_EQ(orch.handle(arrive(2.0, 2, 2, 3)).decision, Decision::kRejected);
  EXPECT_EQ(orch.report().rejected, 1u);
}

/// Feeds `ev`, an arrive for a key the orchestrator still holds, and
/// checks that it is refused without a trace in the run.
void expect_refused(Orchestrator& orch, const TenantEvent& ev,
                    const std::string& held) {
  const auto& report = orch.report();
  const std::size_t decisions = report.decisions.size();
  const std::size_t arrivals = report.arrivals;
  const std::size_t tenants = orch.tenancy().tenant_count();
  const std::vector<double> residual = orch.tenancy().residual_host_proc();
  const std::uint64_t fingerprint = orch.run_fingerprint();
  const std::uint64_t handled = orch.events_handled();
  try {
    (void)orch.handle(ev);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tenant key " + std::to_string(ev.tenant)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(held), std::string::npos) << what;
  }
  EXPECT_EQ(report.decisions.size(), decisions);
  EXPECT_EQ(report.arrivals, arrivals);
  EXPECT_EQ(orch.tenancy().tenant_count(), tenants);
  EXPECT_EQ(orch.tenancy().residual_host_proc(), residual);
  EXPECT_EQ(orch.run_fingerprint(), fingerprint);
  EXPECT_EQ(orch.events_handled(), handled);
}

TEST(OrchestratorTest, ReArriveOfAHeldKeyIsRefused) {
  // Two hosts x 4096 MB; tenant 0 (2 guests x 3000 MB) needs both, so
  // tenant 1 waits in the queue.
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0));
  EXPECT_EQ(orch.handle(arrive(5.0, 0, 2, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(5.0, 1, 2, 2)).decision, Decision::kQueued);
  expect_refused(orch, arrive(6.0, 0, 1, 3), "live");
  expect_refused(orch, arrive(6.0, 1, 1, 4), "queued");

  // The refusals left nothing behind: the departure releases the one
  // tenant 0 holds and backfills tenant 1.
  EXPECT_EQ(orch.handle(depart(7.0, 0)).decision, Decision::kDeparted);
  EXPECT_EQ(orch.report().admitted_from_queue, 1u);
  EXPECT_EQ(orch.tenancy().tenant_count(), 1u);
  EXPECT_EQ(orch.handle(depart(8.0, 1)).decision, Decision::kDeparted);
  EXPECT_EQ(orch.tenancy().tenant_count(), 0u);
  // A key that departed may arrive again.
  EXPECT_EQ(orch.handle(arrive(9.0, 0, 1, 5)).decision, Decision::kAdmitted);
}

TEST(OrchestratorTest, ReArriveOfAParkedKeyIsRefused) {
  // Each host fits one 3000 MB guest: when a tenant's host dies it cannot
  // be re-placed and is parked.
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0));
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 1, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 1, 1, 2)).decision, Decision::kAdmitted);
  TenantEvent fail;
  fail.time = 2.0;
  fail.kind = EventKind::kHostFail;
  fail.element = 1;
  (void)orch.handle(fail);
  std::optional<std::uint32_t> parked;
  for (const auto& d : orch.report().decisions) {
    if (d.decision == Decision::kParked) parked = d.tenant;
  }
  ASSERT_TRUE(parked.has_value());
  expect_refused(orch, arrive(3.0, *parked, 1, 3), "parked");
}

TEST(OrchestratorTest, GrowthExtendsInPlace) {
  Orchestrator orch(line_cluster(3), fixed_profile(256.0, 75.0));
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  const auto grown = orch.handle(grow(1.0, 0, 1, 0, 5));
  EXPECT_EQ(grown.decision, Decision::kGrown);
  const auto ids = orch.tenancy().tenant_ids();
  ASSERT_EQ(ids.size(), 1u);
  const auto* tenant = orch.tenancy().tenant(ids[0]);
  EXPECT_EQ(tenant->venv.guest_count(), 3u);
  EXPECT_TRUE(core::validate_mapping(orch.tenancy().cluster(), tenant->venv,
                                     tenant->mapping)
                  .ok());
  EXPECT_EQ(orch.report().grown_in_place, 1u);
}

TEST(OrchestratorTest, InfeasibleGrowthLeavesTenantUntouched) {
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}),
                    fixed_profile(3000.0));
  EXPECT_EQ(orch.handle(arrive(0.0, 0, 2, 1)).decision, Decision::kAdmitted);
  // A third 3000 MB guest fits neither incrementally nor by full remap.
  const auto rejected = orch.handle(grow(1.0, 0, 1, 0, 5));
  EXPECT_EQ(rejected.decision, Decision::kGrowthRejected);
  const auto ids = orch.tenancy().tenant_ids();
  const auto* tenant = orch.tenancy().tenant(ids[0]);
  EXPECT_EQ(tenant->venv.guest_count(), 2u);  // unchanged
  EXPECT_EQ(orch.report().growth_rejected, 1u);
  // Growth events for unknown tenants are no-ops.
  EXPECT_EQ(orch.handle(grow(2.0, 9, 1, 0, 6)).decision, Decision::kNoOp);
}

TEST(DefragTest, ReducesImbalanceAndPreservesValidity) {
  // Heterogeneous CPUs so the Migration stage has real gradients to walk.
  emulator::TenancyManager mgr(line_cluster(
      {{3000, 4096, 4096}, {1000, 4096, 4096}, {2000, 4096, 4096},
       {1500, 4096, 4096}}));
  util::Rng rng(5);
  std::vector<emulator::TenantId> admitted;
  for (int i = 0; i < 6; ++i) {
    model::VirtualEnvironment venv;
    const auto a = venv.add_guest(
        {rng.uniform(100, 500), rng.uniform(400, 1200), 50});
    const auto b = venv.add_guest(
        {rng.uniform(100, 500), rng.uniform(400, 1200), 50});
    venv.add_link(a, b, {rng.uniform(1, 5), 60.0});
    const auto result =
        mgr.admit("t" + std::to_string(i), std::move(venv),
                  static_cast<std::uint64_t>(100 + i));
    ASSERT_TRUE(result.ok()) << result.detail;
    admitted.push_back(*result.tenant);
  }
  // Carve holes: departures unbalance what admission balanced.
  ASSERT_TRUE(mgr.release(admitted[0]));
  ASSERT_TRUE(mgr.release(admitted[3]));

  const auto pass = orchestrator::run_defrag(mgr);
  EXPECT_TRUE(pass.committed) << pass.detail;
  EXPECT_LE(pass.lbf_after, pass.lbf_before + 1e-9);
  for (const auto id : mgr.tenant_ids()) {
    const auto* tenant = mgr.tenant(id);
    EXPECT_TRUE(core::validate_mapping(mgr.cluster(), tenant->venv,
                                       tenant->mapping)
                    .ok())
        << "tenant " << id << " invalidated by defrag";
  }
  // Full release restores the pristine cluster.
  for (const auto id : mgr.tenant_ids()) EXPECT_TRUE(mgr.release(id));
  const auto residual = mgr.residual_cluster();
  for (const NodeId h : mgr.cluster().hosts()) {
    EXPECT_NEAR(residual.capacity(h).mem_mb, mgr.cluster().capacity(h).mem_mb,
                1e-6);
    EXPECT_NEAR(residual.capacity(h).proc_mips,
                mgr.cluster().capacity(h).proc_mips, 1e-6);
  }
  for (std::size_t e = 0; e < mgr.cluster().link_count(); ++e) {
    const auto id = EdgeId{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_NEAR(residual.link(id).bandwidth_mbps,
                mgr.cluster().link(id).bandwidth_mbps, 1e-6);
  }
}

TEST(DefragTest, NoTenantsIsCleanNoOp) {
  emulator::TenancyManager mgr(line_cluster(3));
  const auto pass = orchestrator::run_defrag(mgr);
  EXPECT_FALSE(pass.committed);
  EXPECT_EQ(pass.migrations, 0u);
}

/// The bench's churn configuration at a reduced horizon.
workload::ChurnTrace replay_trace(std::uint64_t seed) {
  workload::ChurnOptions opts;
  opts.arrival_rate = 0.45;
  opts.horizon = 60.0;
  opts.mean_lifetime = 20.0;
  opts.min_guests = 4;
  opts.max_guests = 10;
  opts.density = 0.2;
  opts.profile = workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1536.0};
  opts.grow_probability = 0.25;
  opts.max_grow_guests = 3;
  return workload::generate_churn(opts, seed);
}

TEST(OrchestratorTest, ReplayIsDeterministic) {
  const auto trace = replay_trace(20090922);
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 11);

  Orchestrator first(cluster, trace.profile);
  Orchestrator second(cluster, trace.profile);
  const std::string sig_first = first.run(trace).decision_signature();
  const std::string sig_second = second.run(trace).decision_signature();
  EXPECT_EQ(sig_first, sig_second);
  EXPECT_GT(first.report().arrivals, 10u);

  // Record -> replay through the binary trace format.
  const auto reloaded = io::read_trace_or_throw(io::write_trace(trace));
  Orchestrator replayed(cluster, reloaded.profile);
  EXPECT_EQ(replayed.run(reloaded).decision_signature(), sig_first);
}

TEST(OrchestratorTest, DefragNeverLowersAcceptance) {
  const auto trace = replay_trace(31337);
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 11);

  OrchestratorOptions off;
  off.defrag_every_departures = 0;
  Orchestrator without(cluster, trace.profile, off);
  const double base = without.run(trace).acceptance_rate();

  Orchestrator with(cluster, trace.profile);
  const double defragged = with.run(trace).acceptance_rate();
  EXPECT_GE(defragged, base);
  EXPECT_GT(with.report().defrag.passes, 0u);
}

}  // namespace
