// Fairness satellites: the retry-queue preemption budget (a starving
// giant is abandoned with an explicit decision once enough backfills are
// admitted past it) and the healer's bounded-exponential parked-queue
// backoff (deterministic schedule, flat at the cap, finite for any
// attempt count).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "orchestrator/healer.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/retry_queue.h"
#include "testing/fixtures.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using orchestrator::backoff_delay;
using orchestrator::Decision;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::PendingTenant;
using orchestrator::QueuePolicy;
using orchestrator::RetryQueue;
using workload::EventKind;
using workload::TenantEvent;

workload::GuestProfile one_host_guests() {
  // Every guest fills most of one 4096 MB host: admission capacity is
  // exactly "number of free hosts".
  workload::GuestProfile p;
  p.proc_mips = {100.0, 100.0};
  p.mem_mb = {3000.0, 3000.0};
  p.stor_gb = {100.0, 100.0};
  p.link_bw_mbps = {1.0, 1.0};
  p.link_lat_ms = {60.0, 60.0};
  return p;
}

TenantEvent arrive(double t, std::uint32_t tenant, std::size_t guests) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = EventKind::kArrive;
  ev.tenant = tenant;
  ev.guest_count = guests;
  ev.density = 0.0;
  ev.seed = tenant + 1;
  return ev;
}

TenantEvent depart(double t, std::uint32_t tenant) {
  TenantEvent ev;
  ev.time = t;
  ev.kind = EventKind::kDepart;
  ev.tenant = tenant;
  return ev;
}

TEST(RetryQueuePreemption, FailedEntriesAreChargedPerAdmission) {
  RetryQueue queue(/*max_attempts=*/0, /*max_size=*/0, QueuePolicy::kFifo,
                   /*max_passovers=*/3);
  PendingTenant small;
  small.key = 1;
  PendingTenant giant;
  giant.key = 2;
  EXPECT_TRUE(queue.push(giant));  // giant is AHEAD of the small in FIFO
  EXPECT_TRUE(queue.push(small));

  // Drain 1: only the small fits.  The giant is charged one passover even
  // though it was tried first — capacity existed and went elsewhere.
  auto r = queue.drain(
      [](const PendingTenant& t) { return t.key == 1; });
  ASSERT_EQ(r.admitted.size(), 1u);
  EXPECT_TRUE(r.preempted.empty());
  EXPECT_EQ(queue.size(), 1u);

  // Drains 2 and 3: one more small admitted each time.  After the third
  // charged passover the giant is preempted, not silently re-queued.
  for (std::uint32_t round = 0; round < 2; ++round) {
    PendingTenant filler;
    filler.key = 10 + round;
    EXPECT_TRUE(queue.push(filler));
    r = queue.drain([](const PendingTenant& t) { return t.key >= 10; });
    ASSERT_EQ(r.admitted.size(), 1u) << "round " << round;
  }
  ASSERT_EQ(r.preempted.size(), 1u);
  EXPECT_EQ(r.preempted[0].key, 2u);
  EXPECT_EQ(r.preempted[0].passed_over, 3u);
  EXPECT_TRUE(queue.empty());
}

TEST(RetryQueuePreemption, NoAdmissionMeansNoCharge) {
  // An empty-handed drain (nothing fits) proves nobody jumped anybody:
  // no passovers accrue, however many drains pass.
  RetryQueue queue(0, 0, QueuePolicy::kFifo, /*max_passovers=*/1);
  PendingTenant giant;
  giant.key = 5;
  EXPECT_TRUE(queue.push(giant));
  for (int i = 0; i < 10; ++i) {
    const auto r = queue.drain([](const PendingTenant&) { return false; });
    EXPECT_TRUE(r.preempted.empty());
  }
  EXPECT_EQ(queue.size(), 1u);
}

TEST(RetryQueuePreemption, AttemptCapWinsTies) {
  // An entry exhausting both budgets in the same drain is dropped (tries
  // exhausted), not preempted — the stricter verdict wins.
  RetryQueue queue(/*max_attempts=*/1, 0, QueuePolicy::kFifo,
                   /*max_passovers=*/1);
  PendingTenant small;
  small.key = 1;
  PendingTenant giant;
  giant.key = 2;
  EXPECT_TRUE(queue.push(giant));
  EXPECT_TRUE(queue.push(small));
  const auto r =
      queue.drain([](const PendingTenant& t) { return t.key == 1; });
  ASSERT_EQ(r.dropped.size(), 1u);
  EXPECT_EQ(r.dropped[0].key, 2u);
  EXPECT_TRUE(r.preempted.empty());
}

TEST(OrchestratorPreemption, StarvingGiantUnderSmallestFirstIsPreempted) {
  // Two hosts, one guest each.  The giant (2 guests) can never fit while
  // any small runs; under kSmallestFirst every drain admits the waiting
  // small first, so without a budget the giant starves invisibly.
  OrchestratorOptions opts;
  opts.queue_policy = QueuePolicy::kSmallestFirst;
  opts.retry_max_attempts = 8;
  opts.retry_max_passovers = 2;
  opts.defrag_every_departures = 0;
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}), one_host_guests(),
                    opts);

  EXPECT_EQ(orch.handle(arrive(0.0, 100, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(0.5, 101, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 7, 2)).decision, Decision::kQueued);
  EXPECT_EQ(orch.handle(arrive(1.5, 102, 1)).decision, Decision::kQueued);

  // Departure 1: the small backfills (passover 1 for the giant).
  orch.handle(depart(2.0, 100));
  EXPECT_EQ(orch.report().admitted_from_queue, 1u);
  EXPECT_EQ(orch.report().preempted, 0u);

  // Another small queues; departure 2 backfills it: passover 2 == budget.
  EXPECT_EQ(orch.handle(arrive(2.5, 103, 1)).decision, Decision::kQueued);
  orch.handle(depart(3.0, 101));

  const auto& report = orch.report();
  EXPECT_EQ(report.admitted_from_queue, 2u);
  ASSERT_EQ(report.preempted, 1u);
  const auto& d = report.decisions.back();
  EXPECT_EQ(d.decision, Decision::kPreempted);
  EXPECT_EQ(d.tenant, 7u);
  EXPECT_DOUBLE_EQ(d.queue_wait, 2.0);  // queued at 1.0, preempted at 3.0
  EXPECT_EQ(report.dropped, 0u);
  // The giant is gone: its later departure is a no-op, not an abandon.
  EXPECT_EQ(orch.handle(depart(4.0, 7)).decision, Decision::kNoOp);
}

TEST(OrchestratorPreemption, ZeroBudgetNeverPreempts) {
  // Default (0) keeps the legacy behavior byte-identical: same scenario,
  // giant survives every drain.
  OrchestratorOptions opts;
  opts.queue_policy = QueuePolicy::kSmallestFirst;
  opts.retry_max_attempts = 8;
  opts.defrag_every_departures = 0;
  Orchestrator orch(line_cluster(2, {1000, 4096, 4096}), one_host_guests(),
                    opts);
  EXPECT_EQ(orch.handle(arrive(0.0, 100, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(0.5, 101, 1)).decision, Decision::kAdmitted);
  EXPECT_EQ(orch.handle(arrive(1.0, 7, 2)).decision, Decision::kQueued);
  EXPECT_EQ(orch.handle(arrive(1.5, 102, 1)).decision, Decision::kQueued);
  orch.handle(depart(2.0, 100));
  EXPECT_EQ(orch.handle(arrive(2.5, 103, 1)).decision, Decision::kQueued);
  orch.handle(depart(3.0, 101));
  EXPECT_EQ(orch.report().preempted, 0u);
  // Still queued: departing now is an abandon, proving it was never
  // preempted.
  EXPECT_EQ(orch.handle(depart(4.0, 7)).decision, Decision::kAbandoned);
}

// --- bounded-exponential parked-queue backoff ----------------------------

TEST(HealerBackoff, ScheduleIsBoundedExponentialAndDeterministic) {
  const double expect[] = {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 32.0, 32.0};
  for (std::size_t n = 1; n <= 8; ++n) {
    EXPECT_DOUBLE_EQ(backoff_delay(n), expect[n - 1]) << "attempt " << n;
  }
}

TEST(HealerBackoff, HugeAttemptCountsSaturateFinite) {
  // The regression this guards: pow(2, n) for large n overflows to
  // infinity and a parked tenant's next_attempt becomes "never".  Capped
  // repeated doubling must stay flat at the cap instead.
  for (const std::size_t n :
       {std::size_t{64}, std::size_t{4096}, std::size_t{1} << 40,
        std::numeric_limits<std::size_t>::max()}) {
    const double d = backoff_delay(n);
    EXPECT_TRUE(std::isfinite(d)) << "attempts " << n;
    EXPECT_DOUBLE_EQ(d, 32.0) << "attempts " << n;
  }
}

}  // namespace
