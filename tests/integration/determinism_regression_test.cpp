// Regression guard for the hmn-lint sweep (R1/unordered-iter): the
// orchestrator's headline guarantee is byte-identical decision logs across
// runs, which silently breaks the moment any decision path iterates a hash
// container.  These tests diff two independently constructed seeded runs —
// through the failure/healing path, where most per-tenant bookkeeping maps
// live — so a reintroduced unordered iteration fails here even if the
// linter itself is bypassed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hmn_mapper.h"
#include "core/hosting.h"
#include "core/incremental.h"
#include "core/migration.h"
#include "core/repair.h"
#include "extensions/heuristic_pool.h"
#include "extensions/replica_spread.h"
#include "io/trace.h"
#include "multilevel/multilevel_mapper.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/router.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/churn.h"
#include "workload/host_generator.h"
#include "workload/power_domains.h"
#include "workload/presets.h"
#include "workload/scenario.h"
#include "workload/venv_generator.h"

namespace {

using hmn::orchestrator::EventDecision;
using hmn::orchestrator::Orchestrator;
using hmn::orchestrator::OrchestratorReport;

hmn::workload::ChurnTrace churn_with_failures(
    const hmn::model::PhysicalCluster& cluster, std::uint64_t seed) {
  hmn::workload::ChurnOptions opts;
  opts.arrival_rate = 0.5;
  opts.horizon = 80.0;
  opts.mean_lifetime = 18.0;
  opts.min_guests = 4;
  opts.max_guests = 9;
  opts.density = 0.2;
  opts.profile = hmn::workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1280.0};
  opts.grow_probability = 0.2;
  hmn::workload::ChurnTrace trace = hmn::workload::generate_churn(opts, seed);

  hmn::workload::FailureOptions fopts;
  fopts.horizon = 80.0;
  fopts.host_mttf = 120.0;
  fopts.host_mttr = 6.0;
  fopts.link_mttf = 90.0;
  fopts.link_mttr = 4.0;
  hmn::workload::merge_events(
      trace, hmn::workload::generate_failures(fopts, cluster, seed ^ 0x5eed));
  return trace;
}

/// Everything replayable about a run, serialized: the decision signature
/// (time/kind/tenant/decision/error/placement-hash per event) plus the
/// utilization timeline and healing counters.  Latencies are wall-clock and
/// deliberately excluded.
std::string run_fingerprint(const OrchestratorReport& report) {
  std::ostringstream out;
  out << report.decision_signature() << '#';
  for (const auto& s : report.timeline) {
    out << s.time << ',' << s.mem_fraction << ',' << s.lbf << ','
        << s.live_tenants << ',' << s.queued << ';';
  }
  out << '#' << report.healed << '|' << report.degraded << '|'
      << report.restored << '|' << report.parked << '|' << report.readmitted
      << '|' << report.heal_dropped << '|' << report.tenant_minutes_lost
      << '|' << report.degraded_minutes;
  return out.str();
}

TEST(DeterminismRegression, SeededRunsWithFailuresAreByteIdentical) {
  const auto cluster = hmn::workload::make_paper_cluster(
      hmn::workload::ClusterKind::kSwitched, 11);
  const auto trace = churn_with_failures(cluster, 0xD15EA5Eu);
  ASSERT_GT(trace.events.size(), 40u);

  Orchestrator first(cluster, trace.profile);
  Orchestrator second(cluster, trace.profile);
  const std::string fp_first = run_fingerprint(first.run(trace));
  const std::string fp_second = run_fingerprint(second.run(trace));
  EXPECT_EQ(fp_first, fp_second);

  // The run must actually exercise the healing path, or this guard guards
  // nothing: require at least one failure-driven decision.
  EXPECT_GT(first.report().host_failures + first.report().link_failures, 0u);
  EXPECT_TRUE(first.report().invariant_violations.empty());
}

TEST(DeterminismRegression, ReplayThroughTraceFormatMatchesLiveRun) {
  const auto cluster = hmn::workload::make_paper_cluster(
      hmn::workload::ClusterKind::kSwitched, 11);
  const auto trace = churn_with_failures(cluster, 20260806u);

  Orchestrator live(cluster, trace.profile);
  const std::string fp_live = run_fingerprint(live.run(trace));

  const auto reloaded =
      hmn::io::read_trace_or_throw(hmn::io::write_trace(trace));
  Orchestrator replayed(cluster, reloaded.profile);
  EXPECT_EQ(run_fingerprint(replayed.run(reloaded)), fp_live);
}

/// A blast-laden trace over a racked fabric: correlated switch failures
/// (Weibull up-times) layered on churn, with availability-aware admission
/// exercised end to end.
hmn::workload::ChurnTrace churn_with_blasts(
    const hmn::model::PhysicalCluster& cluster, std::uint64_t seed) {
  hmn::workload::ChurnOptions opts;
  opts.arrival_rate = 0.6;
  opts.horizon = 70.0;
  opts.mean_lifetime = 15.0;
  opts.profile = hmn::workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1024.0};
  hmn::workload::ChurnTrace trace = hmn::workload::generate_churn(opts, seed);

  hmn::workload::FailureOptions fopts;
  fopts.horizon = 70.0;
  fopts.blast_mttf = 30.0;
  fopts.blast_mttr = 5.0;
  fopts.mttf_dist = hmn::workload::MttfDistribution::kWeibull;
  trace.mttf_dist = fopts.mttf_dist;
  hmn::workload::merge_events(
      trace, hmn::workload::generate_failures(fopts, cluster, seed ^ 0xb1a57));
  return trace;
}

TEST(DeterminismRegression, CorrelatedBlastRunsAreByteIdentical) {
  // The grouped-healing path (one transactional batch per blast, single
  // audit) plus the availability tracker and biased admission all sit on
  // the decision path here; any unordered iteration in them diffs the
  // fingerprint.
  const auto cluster = hmn::model::PhysicalCluster::build(
      hmn::topology::switch_tree(24, 6, 4),
      std::vector<hmn::model::HostCapacity>(24, {1000, 4096, 4096}),
      hmn::model::LinkProps{1000.0, 5.0});
  const auto trace = churn_with_blasts(cluster, 0xb1a57ed5u);

  hmn::orchestrator::OrchestratorOptions opts;
  opts.availability_aware = true;
  Orchestrator first(cluster, trace.profile, opts);
  Orchestrator second(cluster, trace.profile, opts);
  const std::string fp_first = run_fingerprint(first.run(trace));
  EXPECT_EQ(fp_first, run_fingerprint(second.run(trace)));

  EXPECT_GT(first.report().blast_failures, 0u);
  EXPECT_TRUE(first.report().invariant_violations.empty());

  // And the trace record/replay loop reproduces the live decisions: blast
  // group lists, the MTTF tag, and the profile all survive serialization.
  const auto reloaded =
      hmn::io::read_trace_or_throw(hmn::io::write_trace(trace));
  ASSERT_EQ(reloaded.mttf_dist, hmn::workload::MttfDistribution::kWeibull);
  Orchestrator replayed(cluster, reloaded.profile, opts);
  EXPECT_EQ(run_fingerprint(replayed.run(reloaded)), fp_first);
}

TEST(DeterminismRegression, TraceGenerationItselfIsByteStable) {
  const auto cluster = hmn::workload::make_paper_cluster(
      hmn::workload::ClusterKind::kSwitched, 7);
  // Two independent generator invocations, same seed: the encoded trace
  // must be byte-identical — any unordered iteration inside generation or
  // serialization shows up as a diff here.
  const std::string a =
      hmn::io::write_trace(churn_with_failures(cluster, 42));
  const std::string b =
      hmn::io::write_trace(churn_with_failures(cluster, 42));
  EXPECT_EQ(a, b);
  const std::string c =
      hmn::io::write_trace(churn_with_failures(cluster, 43));
  EXPECT_NE(a, c) << "different seeds must actually differ";
}

// ---- Pinned decisions -------------------------------------------------------
//
// The tests above compare two runs of one build, so they cannot see a
// decision that changed between commits.  The tests below compare against
// literal values captured from the code as it stood before the
// orchestrator refactor that keeps each fact once (failure element sets,
// decision records, tiers from the venv, counters-only checkpoints): a
// refactor that is supposed to change no decision must leave every value
// here unchanged.  The values hold for x86-64 builds without -ffast-math;
// another floating-point model may legitimately fork a near-tie decision.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = hmn::orchestrator::kFingerprintSeed;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(PinnedDecisions, HostLinkFailureRunFingerprint) {
  const auto cluster = hmn::workload::make_paper_cluster(
      hmn::workload::ClusterKind::kSwitched, 11);
  const auto trace = churn_with_failures(cluster, 0xD15EA5Eu);
  Orchestrator orch(cluster, trace.profile);
  orch.run(trace);
  EXPECT_EQ(orch.run_fingerprint(), 0x9e47ffc9d091c747ULL);
}

/// The failstorm shape at test scale: a racked 40-host fabric with 4
/// striped power domains, 2-of-3 replica groups, gold and best-effort
/// tenants, host/link/blast/power failures, availability-aware admission,
/// tier-aware healing, and a smallest-first queue with a passover budget.
struct FailstormRun {
  hmn::model::PhysicalCluster cluster;
  hmn::workload::ChurnTrace trace;
};

FailstormRun failstorm_run() {
  hmn::util::Rng rng(0xFA115u);
  auto caps = hmn::workload::generate_hosts(
      40, hmn::workload::paper_host_profile(), rng);
  FailstormRun run{
      hmn::model::PhysicalCluster::build(hmn::topology::switch_tree(40, 10, 4),
                                         std::move(caps),
                                         hmn::workload::paper_link_props()),
      {}};
  hmn::workload::annotate_failure_domains(run.cluster, 4);

  hmn::workload::ChurnOptions copts;
  copts.arrival_rate = 0.8;
  copts.horizon = 120.0;
  copts.mean_lifetime = 14.0;
  copts.lifetime = hmn::workload::LifetimeDistribution::kPareto;
  copts.profile = hmn::workload::high_level_profile();
  copts.profile.mem_mb = {512.0, 1536.0};
  copts.max_grow_guests = 3;
  copts.replica_probability = 0.5;
  copts.replica_n = 3;
  copts.replica_k = 2;
  copts.gold_fraction = 0.3;
  copts.best_effort_fraction = 0.2;
  run.trace = hmn::workload::generate_churn(copts, 0x5707Au);

  hmn::workload::FailureOptions fopts;
  fopts.horizon = 120.0;
  fopts.host_mttf = 200.0;
  fopts.host_mttr = 4.0;
  fopts.link_mttf = 300.0;
  fopts.link_mttr = 4.0;
  fopts.blast_mttf = 40.0;
  fopts.blast_mttr = 5.0;
  fopts.power_mttf = 60.0;
  fopts.power_mttr = 6.0;
  fopts.power_domains = 4;
  hmn::workload::merge_events(
      run.trace,
      hmn::workload::generate_failures(fopts, run.cluster, 0xB1A57u));
  return run;
}

TEST(PinnedDecisions, FailstormShapedRun) {
  const FailstormRun run = failstorm_run();
  hmn::orchestrator::OrchestratorOptions opts;
  opts.availability_aware = true;
  opts.healer.tier_aware = true;
  opts.healer.max_heal_attempts = 2;
  opts.queue_policy = hmn::orchestrator::QueuePolicy::kSmallestFirst;
  opts.retry_max_attempts = 4;
  opts.retry_max_passovers = 3;
  hmn::extensions::HeuristicPool pool;
  pool.add(std::make_unique<hmn::core::HmnMapper>());
  Orchestrator orch(run.cluster, run.trace.profile,
                    hmn::extensions::replica_aware(std::move(pool)), opts);
  const OrchestratorReport& report = orch.run(run.trace);

  std::size_t healed = 0;
  std::size_t degraded = 0;
  std::size_t restored = 0;
  for (const EventDecision& d : report.decisions) {
    if (d.decision == hmn::orchestrator::Decision::kHealed) ++healed;
    if (d.decision == hmn::orchestrator::Decision::kDegraded) ++degraded;
    if (d.decision == hmn::orchestrator::Decision::kRestored) ++restored;
  }
  EXPECT_TRUE(report.invariant_violations.empty());
  EXPECT_GT(report.blast_failures, 0u);
  EXPECT_GT(report.power_failures, 0u);

  EXPECT_EQ(orch.run_fingerprint(), 0x88479f1b755007c6ULL);
  EXPECT_EQ(bits(report.tenant_minutes_lost_gold), 0x40390873143c0a25ULL);
  EXPECT_EQ(bits(report.tenant_minutes_lost_standard), 0x4052374c131a407aULL);
  EXPECT_EQ(bits(report.tenant_minutes_lost_best_effort),
            0x3ff68b951b5a7020ULL);
  EXPECT_EQ(bits(report.degraded_minutes), 0x404b33a3714418a3ULL);
  EXPECT_EQ(bits(report.mean_queue_wait()), 0x3ff883e42b84364aULL);
  EXPECT_EQ(healed, 52u);
  EXPECT_EQ(degraded, 40u);
  EXPECT_EQ(restored, 30u);
}

/// Counts one pool entry's calls and failures.  The flat orchestrator maps
/// on one thread, so plain counters suffice.
class CountingMapper final : public hmn::core::Mapper {
 public:
  struct Counts {
    std::size_t calls = 0;
    std::size_t failed = 0;
  };
  CountingMapper(hmn::core::MapperPtr inner, Counts& counts)
      : inner_(std::move(inner)), counts_(&counts) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] hmn::core::MapOutcome map(
      const hmn::model::PhysicalCluster& cluster,
      const hmn::model::VirtualEnvironment& venv,
      std::uint64_t seed) const override {
    hmn::core::MapOutcome out = inner_->map(cluster, venv, seed);
    ++counts_->calls;
    if (!out.ok()) ++counts_->failed;
    return out;
  }

 private:
  hmn::core::MapperPtr inner_;
  Counts* counts_;
};

// The churn value below was captured from the code as it stood before the
// Eqs. 2-3 certificate gained its exhaustive packing search.  Like the
// values above, it holds for x86-64 builds without -ffast-math.

/// The churn shape at test scale: the paper's 40-host switched cluster at
/// 1.2x offered memory load (Little's law over 4-10 guests of 512-1536 MB,
/// Pareto lifetimes), the default pool with its RA fallback, and a defrag
/// pass after every departure.  At this load HMN often fails, so RA runs,
/// and most of its calls cannot place the tenant at all.
TEST(PinnedDecisions, ChurnOverloadRunFingerprint) {
  const auto cluster = hmn::workload::make_paper_cluster(
      hmn::workload::ClusterKind::kSwitched, 20090922);
  hmn::workload::ChurnOptions copts;
  copts.horizon = 240.0;
  copts.mean_lifetime = 12.0;
  copts.lifetime = hmn::workload::LifetimeDistribution::kPareto;
  copts.profile = hmn::workload::high_level_profile();
  copts.profile.mem_mb = {512.0, 1536.0};
  copts.max_grow_guests = 3;
  double total_mem = 0.0;
  for (const hmn::NodeId h : cluster.hosts()) {
    total_mem += cluster.capacity(h).mem_mb;
  }
  copts.arrival_rate = 1.2 * total_mem / (copts.mean_lifetime * 7.0 * 1024.0);
  const auto trace = hmn::workload::generate_churn(copts, 0xC4u);

  CountingMapper::Counts hmn_counts;
  CountingMapper::Counts ra_counts;
  std::vector<hmn::core::MapperPtr> entries =
      hmn::extensions::default_pool().release();
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_EQ(entries[1]->name(), "RA");
  hmn::extensions::HeuristicPool pool;
  pool.add(std::make_unique<CountingMapper>(std::move(entries[0]), hmn_counts));
  pool.add(std::make_unique<CountingMapper>(std::move(entries[1]), ra_counts));
  Orchestrator orch(cluster, trace.profile, std::move(pool));
  const OrchestratorReport& report = orch.run(trace);

  EXPECT_TRUE(report.invariant_violations.empty());
  EXPECT_GT(ra_counts.calls, 0u);
  EXPECT_GT(ra_counts.failed, 0u);
  EXPECT_LT(ra_counts.failed, ra_counts.calls);
  EXPECT_EQ(hmn_counts.failed, ra_counts.calls);
  EXPECT_EQ(orch.run_fingerprint(), 0x95494a0f8862410cULL);
}

TEST(PinnedDecisions, ShardedMultilevelRouterSignature) {
  const auto fabric = hmn::model::PhysicalCluster::build(
      hmn::topology::switch_tree(256, 8, 4),
      std::vector<hmn::model::HostCapacity>(256, {1000.0, 4096, 4096}),
      hmn::model::LinkProps{1000.0, 0.5});
  hmn::orchestrator::RouterOptions opts;
  opts.shards = 4;
  opts.multilevel_min_hosts = 32;
  opts.multilevel.phys.target_nodes = 16;
  opts.multilevel.virt.target_guests = 4;
  hmn::orchestrator::PlacementRouter router(fabric, opts);

  for (std::uint64_t batch = 0; batch < 4; ++batch) {
    std::vector<hmn::orchestrator::AdmissionRequest> requests;
    for (std::uint64_t i = 0; i < 10; ++i) {
      hmn::util::Rng rng(hmn::util::derive_seed(3, batch, i));
      hmn::workload::VenvGenOptions vopts;
      vopts.guest_count = 6 + (batch + i) % 7;
      vopts.density = 0.2;
      vopts.profile = hmn::workload::high_level_profile();
      vopts.normalize_to = &fabric;
      hmn::orchestrator::AdmissionRequest req;
      req.key = static_cast<std::uint32_t>(batch * 10 + i + 1);
      req.venv = hmn::workload::generate_venv(vopts, rng);
      req.seed = hmn::util::derive_seed(4, batch, i);
      requests.push_back(std::move(req));
    }
    router.admit_batch(requests, hmn::util::derive_seed(5, batch));
    // Free every third tenant of the batch so later batches see churn.
    for (std::uint32_t key = static_cast<std::uint32_t>(batch * 10 + 1);
         key <= batch * 10 + 10; key += 3) {
      router.release(key);
    }
  }
  EXPECT_GT(router.tenant_count(), 0u);
  EXPECT_EQ(fnv1a(router.decision_signature()), 0xe5aed5371f2194ddULL);
}

// The growth and repair values below were captured from the code as it
// stood before extend_mapping and repair_mapping moved onto the Networking
// stage's link router and the Hosting stage's single-guest rule.  Like the
// values above, they hold for x86-64 builds without -ffast-math.

/// What ExtendAndRepairMappings folds per cluster, plus counts that prove
/// the battery reached the paths it pins.
struct GrowthRepairDigest {
  std::uint64_t hash = hmn::orchestrator::kFingerprintSeed;
  std::size_t growths_ok = 0;
  std::size_t repairs_ok = 0;
  std::size_t repairs_refused = 0;
  std::size_t dark_links = 0;

  void mix(std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  }
};

/// Growth and repair over one paper cluster: HMN base mappings of the
/// high-level scenarios at ratios 2.5, 5 and 10 (density 0.02), each
/// extended by five seeded 10-guest growths, repaired after every
/// single-host failure, and repaired after 30 seeded failure sets with
/// allow_dark_links alternating.  A third of the sets kill a node, a third
/// cut every link of a node (its guests stay, their links lose the
/// fabric), and every set kills up to six random links.
GrowthRepairDigest growth_repair_digest(hmn::workload::ClusterKind kind) {
  namespace core = hmn::core;
  const auto cluster = hmn::workload::make_paper_cluster(kind, 1);
  const hmn::graph::Graph& g = cluster.graph();
  auto random_node = [&](hmn::util::Rng& rng) {
    return hmn::NodeId{static_cast<hmn::NodeId::underlying_type>(
        rng.index(cluster.node_count()))};
  };
  GrowthRepairDigest d;
  const double ratios[] = {2.5, 5.0, 10.0};
  for (std::uint64_t r = 0; r < 3; ++r) {
    hmn::workload::Scenario scenario;
    scenario.ratio = ratios[r];
    scenario.density = 0.02;
    scenario.workload = hmn::workload::WorkloadKind::kHighLevel;
    const auto venv = hmn::workload::make_scenario_venv(scenario, cluster, 2);
    const auto base = core::HmnMapper().map(cluster, venv, 1);
    EXPECT_TRUE(base.ok()) << base.detail;
    if (!base.ok()) continue;
    auto fold = [&](const core::MapOutcome& out) {
      d.mix(out.ok() ? core::fingerprint(*out.mapping)
                     : static_cast<std::uint64_t>(out.error));
    };

    for (std::uint64_t s = 0; s < 5; ++s) {
      hmn::workload::TenantEvent grow;
      grow.kind = hmn::workload::EventKind::kGrow;
      grow.add_guests = 10;
      grow.add_links = 5;
      grow.seed = hmn::util::derive_seed(21, r, s);
      const auto grown = hmn::workload::apply_growth(
          venv, hmn::workload::high_level_profile(), grow);
      const auto out = core::extend_mapping(cluster, grown, *base.mapping);
      fold(out);
      if (out.ok()) ++d.growths_ok;
    }

    for (const hmn::NodeId host : cluster.hosts()) {
      core::RepairStats stats;
      const auto out =
          core::repair_mapping(cluster, venv, *base.mapping, host, &stats);
      fold(out);
      d.mix(stats.guests_moved);
      d.mix(stats.links_rerouted);
      if (out.ok()) ++d.repairs_ok;
    }

    hmn::util::Rng rng(hmn::util::derive_seed(22, r));
    for (std::size_t i = 0; i < 30; ++i) {
      core::RepairOptions opts;
      opts.allow_dark_links = i % 2 == 1;
      if (i % 3 == 0) opts.failed.nodes.push_back(random_node(rng));
      if (i % 3 == 1) {
        for (const hmn::graph::Adjacency& adj : g.neighbors(random_node(rng))) {
          opts.failed.links.push_back(adj.edge);
        }
      }
      const std::size_t links = rng.index(7);
      for (std::size_t k = 0; k < links; ++k) {
        opts.failed.links.push_back(
            hmn::EdgeId{static_cast<hmn::EdgeId::underlying_type>(
                rng.index(cluster.link_count()))});
      }
      core::RepairStats stats;
      const auto out =
          core::repair_mapping(cluster, venv, *base.mapping, opts, &stats);
      fold(out);
      for (const hmn::VirtLinkId l : stats.dark_links) d.mix(l.value());
      if (out.ok()) {
        ++d.repairs_ok;
        d.dark_links += stats.dark_links.size();
      } else {
        ++d.repairs_refused;
      }
    }
  }
  return d;
}

TEST(PinnedDecisions, ExtendAndRepairMappings) {
  const GrowthRepairDigest torus =
      growth_repair_digest(hmn::workload::ClusterKind::kTorus2D);
  const GrowthRepairDigest switched =
      growth_repair_digest(hmn::workload::ClusterKind::kSwitched);
  for (const GrowthRepairDigest* d : {&torus, &switched}) {
    EXPECT_GT(d->growths_ok, 0u);
    EXPECT_GT(d->repairs_ok, 0u);
    EXPECT_GT(d->repairs_refused, 0u);
    EXPECT_GT(d->dark_links, 0u);
  }
  EXPECT_EQ(torus.hash, 0x900dbd5bcc4b55ccULL);
  EXPECT_EQ(switched.hash, 0x6747903f5a13e89fULL);
}

// The large-fabric values below were captured from the code as it stood
// before the Migration stage's early stop, Hosting's incremental host order
// and the multilevel refiner's skipped repeats.  Like the values above, they
// hold for x86-64 builds without -ffast-math.

/// What StagesOnLargeFabrics folds per fabric, plus counts that prove the
/// battery reached the paths it pins.
struct LargeFabricDigest {
  std::uint64_t hash = hmn::orchestrator::kFingerprintSeed;
  std::size_t hosted = 0;
  std::size_t migrations = 0;
  std::size_t pyramid = 0;  // multilevel admissions that kept the pyramid

  void mix(std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  }
};

/// Six of E16's memory-heavy tenants (24-48 guests of 512-1536 MB) admitted
/// one after another by the multilevel mapper onto a switch-tree fabric,
/// each admission's load deducted before the next; before each admission
/// the paper's Hosting and Migration stages also run on the whole fabric.
/// `table1` draws host capacities from the paper's Table 1 ranges;
/// otherwise every host is 1000 MIPS / 4 GB / 4 TB.  Other tenants' load
/// leaves each host a seeded 5-100 % of its memory, so groups often cannot
/// carry their share and the refiner widens and spills.
LargeFabricDigest large_fabric_digest(std::size_t hosts, bool table1) {
  namespace core = hmn::core;
  hmn::util::Rng rng(hmn::util::derive_seed(31, hosts, table1));
  std::vector<hmn::model::HostCapacity> caps(hosts, {1000.0, 4096, 4096});
  if (table1) {
    caps = hmn::workload::generate_hosts(
        hosts, hmn::workload::paper_host_profile(), rng);
  }
  for (hmn::model::HostCapacity& c : caps) c.mem_mb *= rng.uniform(0.05, 1.0);
  const hmn::topology::Topology topo = hmn::topology::switch_tree(hosts, 8, 4);
  hmn::model::LinkProps link = hmn::workload::paper_link_props();
  link.latency_ms = 1.0;  // a 10-hop tree path stays inside 30 ms
  std::vector<hmn::model::LinkProps> links(topo.graph.edge_count(), link);
  const hmn::multilevel::MultilevelMapper ml;

  LargeFabricDigest d;
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    const auto fabric = hmn::model::PhysicalCluster::build(topo, caps, links);
    hmn::workload::VenvGenOptions vopts;
    vopts.guest_count = 24 + rng.index(25);
    vopts.density = 0.2;
    vopts.profile = hmn::workload::high_level_profile();
    vopts.profile.mem_mb = {512.0, 1536.0};
    vopts.normalize_to = &fabric;
    const auto venv = hmn::workload::generate_venv(vopts, rng);

    core::ResidualState state(fabric);
    core::HostingResult hosted = core::run_hosting(venv, state);
    d.mix(hosted.ok);
    if (hosted.ok) {
      ++d.hosted;
      const core::MigrationResult moved =
          core::run_migration(venv, state, hosted.guest_host);
      d.migrations += moved.migrations;
      d.mix(moved.migrations);
      d.mix(bits(moved.initial_lbf));
      d.mix(bits(moved.final_lbf));
      for (const hmn::NodeId h : hosted.guest_host) d.mix(h.value());
    }

    const core::MapOutcome out = ml.map(fabric, venv, rep + 1);
    d.mix(out.ok() ? core::fingerprint(*out.mapping)
                   : static_cast<std::uint64_t>(out.error));
    d.mix(out.stats.levels_used);
    d.mix(out.stats.migrations);
    if (!out.ok()) continue;
    if (out.stats.levels_used > 0) ++d.pyramid;
    // Commit: the next tenant sees this one's load.
    const std::vector<hmn::NodeId>& order = fabric.hosts();
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      const auto& req = venv.guest(
          hmn::GuestId{static_cast<hmn::GuestId::underlying_type>(g)});
      const hmn::NodeId at = out.mapping->guest_host[g];
      hmn::model::HostCapacity& c = caps[static_cast<std::size_t>(
          std::lower_bound(order.begin(), order.end(), at) - order.begin())];
      c.proc_mips -= req.proc_mips;
      c.mem_mb -= req.mem_mb;
      c.stor_gb -= req.stor_gb;
    }
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      const double bw =
          venv.link(hmn::VirtLinkId{
                        static_cast<hmn::VirtLinkId::underlying_type>(l)})
              .bandwidth_mbps;
      for (const hmn::EdgeId e : out.mapping->link_paths[l]) {
        links[e.index()].bandwidth_mbps -= bw;
      }
    }
  }
  return d;
}

TEST(PinnedDecisions, StagesOnLargeFabrics) {
  struct Case {
    std::size_t hosts;
    bool table1;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {256, false, 0xec0beb6b75f0b64aULL},
      {256, true, 0x0fd03dddb31b16baULL},
      {640, false, 0x783b1a185bcdb237ULL},
      {640, true, 0x605285b990edb20eULL},
      {1000, false, 0xc42fd0bc3d6a3fc2ULL},
      {1000, true, 0xa69045b1b68b4d31ULL},
  };
  std::size_t migrations = 0;
  for (const Case& c : cases) {
    const LargeFabricDigest d = large_fabric_digest(c.hosts, c.table1);
    EXPECT_GT(d.hosted, 0u) << c.hosts << " hosts, table1 " << c.table1;
    EXPECT_GT(d.pyramid, 0u) << c.hosts << " hosts, table1 " << c.table1;
    EXPECT_EQ(d.hash, c.hash) << c.hosts << " hosts, table1 " << c.table1;
    migrations += d.migrations;
  }
  EXPECT_GT(migrations, 0u);
}

// The torus value below was captured from the code as it stood before the
// multilevel refiner's regions became views of their level.  Like the
// values above, it holds for x86-64 builds without -ffast-math.

/// Ten tenants of 16-40 guests (768-2048 MB) admitted one after another by
/// the multilevel mapper onto a 16x16 torus (256 hosts, no switches)
/// through one shared hierarchy, each admission's load deducted before the
/// next.  Other tenants' load leaves each host a seeded 5-100 % of its
/// memory and a quarter of the links at most 1.2 Mbps, so groups often
/// cannot carry their share and regions cannot carry their links: the
/// refiner widens and re-routes over regions with cycles, where the router
/// searches instead of walking a tree.
LargeFabricDigest torus_multilevel_digest() {
  namespace core = hmn::core;
  hmn::util::Rng rng(hmn::util::derive_seed(41, 16, 16));
  const hmn::topology::Topology topo = hmn::topology::torus_2d(16, 16);
  std::vector<hmn::model::HostCapacity> caps(256, {1000.0, 4096, 4096});
  for (hmn::model::HostCapacity& c : caps) c.mem_mb *= rng.uniform(0.05, 1.0);
  hmn::model::LinkProps link = hmn::workload::paper_link_props();
  link.latency_ms = 1.0;  // a 16-hop torus path stays inside 30 ms
  std::vector<hmn::model::LinkProps> links(topo.graph.edge_count(), link);
  for (hmn::model::LinkProps& l : links) {
    if (rng.index(4) == 0) l.bandwidth_mbps = rng.uniform(0.0, 1.2);
  }
  const auto base = hmn::model::PhysicalCluster::build(topo, caps, links);
  const hmn::multilevel::MultilevelMapper ml(
      {}, std::make_shared<const hmn::multilevel::PhysicalHierarchy>(
              hmn::multilevel::build_hierarchy(base, {})));

  LargeFabricDigest d;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    std::vector<hmn::model::HostCapacity> node_caps(base.node_count());
    for (std::size_t h = 0; h < caps.size(); ++h) {
      node_caps[base.hosts()[h].index()] = caps[h];
    }
    const auto fabric =
        hmn::model::PhysicalCluster::with_resources(base, node_caps, links);
    hmn::workload::VenvGenOptions vopts;
    vopts.guest_count = 16 + rng.index(25);
    vopts.density = 0.2;
    vopts.profile = hmn::workload::high_level_profile();
    vopts.profile.mem_mb = {768.0, 2048.0};
    vopts.normalize_to = &fabric;
    const auto venv = hmn::workload::generate_venv(vopts, rng);

    const core::MapOutcome out = ml.map(fabric, venv, rep + 1);
    d.mix(out.ok() ? core::fingerprint(*out.mapping)
                   : static_cast<std::uint64_t>(out.error));
    d.mix(out.stats.levels_used);
    d.mix(out.stats.migrations);
    d.migrations += out.stats.migrations;
    if (!out.ok()) continue;
    ++d.hosted;
    if (out.stats.levels_used > 0) ++d.pyramid;
    const std::vector<hmn::NodeId>& order = base.hosts();
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      const auto& req = venv.guest(
          hmn::GuestId{static_cast<hmn::GuestId::underlying_type>(g)});
      const hmn::NodeId at = out.mapping->guest_host[g];
      hmn::model::HostCapacity& c = caps[static_cast<std::size_t>(
          std::lower_bound(order.begin(), order.end(), at) - order.begin())];
      c.proc_mips -= req.proc_mips;
      c.mem_mb -= req.mem_mb;
      c.stor_gb -= req.stor_gb;
    }
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      const double bw =
          venv.link(hmn::VirtLinkId{
                        static_cast<hmn::VirtLinkId::underlying_type>(l)})
              .bandwidth_mbps;
      for (const hmn::EdgeId e : out.mapping->link_paths[l]) {
        links[e.index()].bandwidth_mbps -= bw;
      }
    }
  }
  return d;
}

TEST(PinnedDecisions, MultilevelOnATorus) {
  const LargeFabricDigest d = torus_multilevel_digest();
  EXPECT_GT(d.pyramid, 0u);
  EXPECT_GT(d.migrations, 0u);
  EXPECT_EQ(d.hash, 0x9943edaaa0f24641ULL);
}

// The defrag values below were captured from the code as it stood before
// the best-improvement Migration scan filtered its pairs, the re-route
// reused the Migration stage's residual state and the commit moved the
// routed paths.  Like the values above, they hold for x86-64 builds without
// -ffast-math.

/// Folds every committed defrag pass as the observer sees it, after the
/// commit: the pass's migration count, every tenant's guest hosts and link
/// paths, and the bits of the cluster's residual CPU.  The run fingerprint
/// folds placement hashes only, so it cannot see which paths the re-route
/// picked.
class DefragDigest final : public hmn::orchestrator::TxnObserver {
 public:
  explicit DefragDigest(const Orchestrator& orch) : orch_(&orch) {}

  void on_event_begin(std::uint64_t /*event_index*/,
                      const hmn::workload::TenantEvent& /*ev*/) override {}
  void on_event_end(std::uint64_t /*event_index*/, double /*time*/,
                    std::uint64_t /*fingerprint*/) override {}
  void on_txn(const hmn::orchestrator::TxnRecord& txn) override {
    if (txn.kind != hmn::orchestrator::TxnKind::kDefragCommit) return;
    ++passes;
    migrations += txn.detail;
    mix(txn.detail);
    const hmn::emulator::TenancyManager& mgr = orch_->tenancy();
    for (const hmn::emulator::TenantId id : mgr.tenant_ids()) {
      const hmn::core::Mapping& m = mgr.tenant(id)->mapping;
      mix(id);
      for (const hmn::NodeId h : m.guest_host) mix(h.value());
      for (const hmn::graph::Path& path : m.link_paths) {
        mix(path.size());
        if (!path.empty()) ++routed_links;
        for (const hmn::EdgeId e : path) mix(e.value());
      }
    }
    for (const double r : mgr.residual_host_proc()) mix(bits(r));
  }

  std::uint64_t hash = hmn::orchestrator::kFingerprintSeed;
  std::size_t passes = 0;
  std::size_t migrations = 0;
  std::size_t routed_links = 0;  // non-empty paths over all folded passes

 private:
  void mix(std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  }

  const Orchestrator* orch_;
};

/// E12's churn at its top load on one paper cluster: 4-10 host-scale guests
/// (0.5-1.5 GB, density 0.2) at 1.3x offered memory load, Pareto lifetimes
/// with a mean of 12, a fifth of the tenants growing by up to 3 guests,
/// HMN-only admission and a defrag pass after every departure.
DefragDigest defrag_digest(hmn::workload::ClusterKind kind,
                           std::uint64_t& run_fingerprint) {
  const auto cluster = hmn::workload::make_paper_cluster(kind, 0xDEF4A6u);
  hmn::workload::ChurnOptions copts;
  copts.horizon = 120.0;
  copts.mean_lifetime = 12.0;
  copts.lifetime = hmn::workload::LifetimeDistribution::kPareto;
  copts.min_guests = 4;
  copts.max_guests = 10;
  copts.density = 0.2;
  copts.profile = hmn::workload::high_level_profile();
  copts.profile.mem_mb = {512.0, 1536.0};
  copts.grow_probability = 0.2;
  copts.max_grow_guests = 3;
  double total_mem = 0.0;
  for (const hmn::NodeId h : cluster.hosts()) {
    total_mem += cluster.capacity(h).mem_mb;
  }
  copts.arrival_rate = 1.3 * total_mem / (copts.mean_lifetime * 7.0 * 1024.0);
  const auto trace = hmn::workload::generate_churn(copts, 0xDEF4A7u);

  hmn::extensions::HeuristicPool pool;
  pool.add(std::make_unique<hmn::core::HmnMapper>());
  Orchestrator orch(cluster, trace.profile, std::move(pool));
  DefragDigest digest(orch);
  orch.set_txn_observer(&digest);
  const OrchestratorReport& report = orch.run(trace);
  EXPECT_TRUE(report.invariant_violations.empty());
  EXPECT_EQ(report.defrag.committed, digest.passes);
  run_fingerprint = orch.run_fingerprint();
  return digest;
}

TEST(PinnedDecisions, DefragPassesOnBothPaperClusters) {
  std::uint64_t switched_fp = 0;
  std::uint64_t torus_fp = 0;
  const DefragDigest switched =
      defrag_digest(hmn::workload::ClusterKind::kSwitched, switched_fp);
  const DefragDigest torus =
      defrag_digest(hmn::workload::ClusterKind::kTorus2D, torus_fp);
  for (const DefragDigest* d : {&switched, &torus}) {
    EXPECT_GT(d->passes, 100u);
    EXPECT_GT(d->migrations, d->passes);
    EXPECT_GT(d->routed_links, 1000u);
  }
  // Both clusters share the seeded hosts, so they place alike and share
  // one run fingerprint; only the digest sees their different paths.
  EXPECT_EQ(switched_fp, 0xd3f30b4a0d2ad8acULL);
  EXPECT_EQ(torus_fp, 0xd3f30b4a0d2ad8acULL);
  EXPECT_EQ(switched.hash, 0x21c94fa121b58aeaULL);
  EXPECT_EQ(torus.hash, 0x86bcf3e08d999b1eULL);
}

}  // namespace
