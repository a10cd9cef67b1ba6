// Tests for the availability layer: the EWMA tracker itself, the biased
// admission view of the TenancyManager, and the orchestrator's
// invisibility invariant (aware == blind until the first failure).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "availability/availability_tracker.h"
#include "core/hmn_mapper.h"
#include "emulator/tenancy.h"
#include "orchestrator/orchestrator.h"
#include "recovery/checkpoint.h"
#include "testing/fixtures.h"
#include "topology/topologies.h"
#include "workload/churn.h"
#include "workload/presets.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using availability::AvailabilityTracker;

TEST(AvailabilityTracker, NeverFailedElementsReportExactlyOne) {
  AvailabilityTracker t(4);
  for (const double w : t.node_weights()) EXPECT_EQ(w, 1.0);
  // A transition elsewhere never perturbs an untouched node.
  t.on_node_fail(1, 5.0);
  const auto weights = t.node_weights();
  EXPECT_EQ(weights[0], 1.0);
  EXPECT_EQ(weights[2], 1.0);
  EXPECT_EQ(weights[3], 1.0);
}

TEST(AvailabilityTracker, DownElementsSitAtTheFloor) {
  AvailabilityTracker t(2);
  t.on_node_fail(0, 10.0);
  EXPECT_TRUE(t.snapshot().nodes[0].down);
  EXPECT_DOUBLE_EQ(t.node_weights()[0], availability::kFloor);
}

TEST(AvailabilityTracker, RecoveryFoldsTheDownIntervalEwma) {
  AvailabilityTracker t(1);
  // Up for 100, down for 10: fail at t=100 folds the up interval (x=1,
  // avail stays 1), recover at t=110 folds the down interval with
  // alpha = 1 - exp(-10/tau), tau = 50.
  t.on_node_fail(0, 100.0);
  t.on_node_recover(0, 110.0);
  const double alpha = 1.0 - std::exp(-10.0 / 50.0);
  EXPECT_FALSE(t.snapshot().nodes[0].down);
  EXPECT_NEAR(t.node_weights()[0], 1.0 - alpha, 1e-12);
  // A long stable up interval pulls the estimate back toward 1 (checked
  // after the next recovery: while down, the weight is the floor).
  t.on_node_fail(0, 400.0);
  t.on_node_recover(0, 401.0);
  EXPECT_GT(t.node_weights()[0], 1.0 - alpha);
}

TEST(AvailabilityTracker, DuplicateTransitionsAreNoOps) {
  // Overlapping blast groups can replay a member's fail/recover; the
  // second application of either direction must not move the estimate.
  AvailabilityTracker t(1);
  t.on_node_fail(0, 10.0);
  const double down = t.node_weights()[0];
  t.on_node_fail(0, 12.0);  // already down
  EXPECT_EQ(t.node_weights()[0], down);
  t.on_node_recover(0, 20.0);
  const double up = t.node_weights()[0];
  t.on_node_recover(0, 25.0);  // already up
  EXPECT_EQ(t.node_weights()[0], up);
}

TEST(AvailabilityTracker, OutOfRangeElementsAreIgnored) {
  AvailabilityTracker tracker(2);
  tracker.on_node_recover(99, 1.0);  // no crash, no history
  EXPECT_FALSE(tracker.has_history());
  tracker.on_node_fail(50, 1.0);  // no crash, but flips the history latch
  EXPECT_TRUE(tracker.has_history());
  for (const double w : tracker.node_weights()) EXPECT_EQ(w, 1.0);
}

TEST(AvailabilityTracker, WeightsAreAllOneUntilFirstFailure) {
  AvailabilityTracker tracker(3);
  EXPECT_FALSE(tracker.has_history());
  for (const double w : tracker.node_weights()) EXPECT_EQ(w, 1.0);

  tracker.on_node_fail(1, 4.0);
  tracker.on_node_recover(1, 6.0);
  ASSERT_TRUE(tracker.has_history());
  const auto weights = tracker.node_weights();
  EXPECT_EQ(weights[0], 1.0);
  EXPECT_LT(weights[1], 1.0);
  EXPECT_EQ(weights[2], 1.0);
}

TEST(TenancyBias, DefaultsLeaveAdmissionUntouched) {
  // With all-1.0 weights and zero headroom the biased admission view is
  // byte-identical to the plain residual view: same placements.
  const auto venv = hmn::test::chain_venv(3);
  emulator::TenancyManager plain(hmn::test::line_cluster(4));
  emulator::TenancyManager biased(hmn::test::line_cluster(4));
  biased.set_host_weights(std::vector<double>(4, 1.0));
  biased.set_admission_headroom(0.0);
  const auto a = plain.admit("t1", venv, 7);
  const auto b = biased.admit("t1", venv, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(plain.tenant(*a.tenant)->mapping.guest_host,
            biased.tenant(*b.tenant)->mapping.guest_host);
}

TEST(TenancyBias, HeadroomReservationRejectsWhatStillFitsRaw) {
  // One host, 4096 MB.  A 3900 MB guest fits raw but not once 10% of the
  // host is withheld; the healer path (reserve_headroom = false) still
  // gets the full host.
  emulator::TenancyManager mgr(hmn::test::line_cluster(1));
  mgr.set_admission_headroom(0.1);
  model::VirtualEnvironment venv;
  venv.add_guest({10, 3900.0, 100});
  const auto refused = mgr.admit("t1", venv, 1);
  EXPECT_FALSE(refused.ok());
  const auto healed = mgr.admit("t1", venv, 1, /*reserve_headroom=*/false);
  EXPECT_TRUE(healed.ok()) << healed.detail;
}

TEST(TenancyBias, WeightsSteerPlacementTowardReliableHosts) {
  // Two identical hosts; a solo guest lands on the higher-scoring one.
  // Down-weighting host 0 must flip Hosting's most-CPU ordering.
  model::VirtualEnvironment venv;
  venv.add_guest({10, 100.0, 100});
  emulator::TenancyManager mgr(hmn::test::line_cluster(2));
  mgr.set_host_weights({0.5, 1.0});
  const auto admitted = mgr.admit("t1", venv, 3);
  ASSERT_TRUE(admitted.ok()) << admitted.detail;
  EXPECT_EQ(mgr.tenant(*admitted.tenant)->mapping.guest_host[0], NodeId{1});

  emulator::TenancyManager flipped(hmn::test::line_cluster(2));
  flipped.set_host_weights({1.0, 0.5});
  const auto other = flipped.admit("t1", venv, 3);
  ASSERT_TRUE(other.ok()) << other.detail;
  EXPECT_EQ(flipped.tenant(*other.tenant)->mapping.guest_host[0], NodeId{0});
}

extensions::HeuristicPool hmn_pool() {
  extensions::HeuristicPool pool;
  pool.add(std::make_unique<core::HmnMapper>());
  return pool;
}

TEST(OrchestratorAvailability, AwareIsInvisibleWithoutFailures) {
  // The tentpole's tie gate in miniature: on a failure-free trace the
  // availability-aware orchestrator must produce a byte-identical decision
  // signature to the blind one.
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 5);
  workload::ChurnOptions copts;
  copts.arrival_rate = 1.0;
  copts.horizon = 30.0;
  copts.profile = workload::high_level_profile();
  const auto trace = workload::generate_churn(copts, 99);

  orchestrator::OrchestratorOptions aware;
  aware.availability_aware = true;
  orchestrator::Orchestrator a(cluster, trace.profile, hmn_pool(), aware);
  orchestrator::Orchestrator b(cluster, trace.profile, hmn_pool(), {});
  EXPECT_EQ(a.run(trace).decision_signature(),
            b.run(trace).decision_signature());
  EXPECT_FALSE(a.availability().has_history());
}

TEST(OrchestratorAvailability, BlastEventsFeedTheTrackerAndCount) {
  const auto cluster = model::PhysicalCluster::build(
      topology::switch_tree(4, 2, 2),
      std::vector<model::HostCapacity>(4, {1000, 4096, 4096}), {1000.0, 5.0});
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.5;
  copts.horizon = 60.0;
  copts.profile = workload::high_level_profile();
  workload::ChurnTrace trace = workload::generate_churn(copts, 12);
  workload::FailureOptions fo;
  fo.horizon = 60.0;
  fo.blast_mttf = 20.0;
  workload::merge_events(trace,
                         workload::generate_failures(fo, cluster, 13));

  orchestrator::OrchestratorOptions opts;
  opts.availability_aware = true;
  orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(), opts);
  const auto& report = orch.run(trace);
  EXPECT_GT(report.blast_failures, 0u);
  EXPECT_TRUE(report.invariant_violations.empty());
  EXPECT_TRUE(orch.availability().has_history());
  // At least one host under a blasted switch carries degraded availability.
  const std::vector<double> weights = orch.availability().node_weights();
  bool any_scarred = false;
  for (const NodeId h : cluster.hosts()) {
    if (weights[h.index()] < 1.0) any_scarred = true;
  }
  EXPECT_TRUE(any_scarred);
}

TEST(OrchestratorAvailability, LinkFailureStartsHistoryAcrossACheckpoint) {
  // Links carry no estimate, but a run whose first failure is a link must
  // still install the admission headroom, and a checkpoint must keep it.
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 5);
  orchestrator::OrchestratorOptions opts;
  opts.availability_aware = true;
  const auto profile = workload::high_level_profile();
  orchestrator::Orchestrator orch(cluster, profile, hmn_pool(), opts);
  workload::TenantEvent fail;
  fail.time = 1.0;
  fail.kind = workload::EventKind::kLinkFail;
  fail.element = 0;
  orch.handle(fail);
  EXPECT_TRUE(orch.availability().has_history());
  EXPECT_EQ(orch.tenancy().admission_headroom(), 0.1);

  orchestrator::Orchestrator restored(cluster, profile, hmn_pool(), opts);
  restored.restore_state(
      recovery::decode_state(recovery::encode_state(orch.export_state())));
  EXPECT_TRUE(restored.availability().has_history());
  EXPECT_EQ(restored.tenancy().admission_headroom(), 0.1);
}

}  // namespace
