// E17 — k-of-n replica placement with SLA tiers under correlated failures.
//
// Tenants declare a replica group (any k of n members alive keeps the
// tenant healthy) and an SLA tier (gold / standard / best-effort).  The
// anti-affinity pass (extensions::replica_aware) spreads each group's
// members across the cluster's failure domains — the PR 5 blast groups
// (a leaf switch plus its subtree) and the power domains added here (PDU
// striping across racks, one repair crew serialized across outages) — so
// a single correlated event downs at most a minority of any group.  The
// tier-aware Healer then *defers* repair for quorate degraded groups
// (the tenant keeps running on its surviving replicas), heals gold
// tenants first, and parks best-effort tenants without claiming the
// spare-headroom reserve.
//
// Three variants over the same recorded v4 trace:
//
//   replicated    domain-annotated cluster, anti-affine spread, tier-aware
//                 healing — the full subsystem;
//   blind         identical in every respect except the cluster carries no
//                 failure-domain annotation, so the spread pass is inert
//                 and replicas land wherever the base mapper puts them;
//   unreplicated  the same arrivals with the replica spec stripped (tiers
//                 kept), so every failure needs a real repair.
//
// Reported per variant: gold / standard / best-effort tenant-minutes
// lost, deferred repairs, power outages, parks, drops.  Gates (exit
// nonzero on any failure): zero invariant-auditor violations anywhere;
// replicated loses strictly fewer gold tenant-minutes than both
// baselines in aggregate; a fresh re-run and a v4 record/replay produce
// byte-identical decision signatures; and the sharded router with
// replica_spread routes a replicated batch byte-identically at
// threads=1 and threads=4.  `--smoke` shrinks the grid for CI.
#include "bench_common.h"

#include "extensions/replica_spread.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/router.h"
#include "util/stats.h"
#include "workload/power_domains.h"

namespace {

using namespace hmn;

constexpr std::size_t kPowerDomains = 4;

extensions::HeuristicPool spread_pool() {
  return extensions::replica_aware(bench::hmn_pool());
}

/// E15's racked fabric; power striping (host % 4) cuts across the racks, so
/// the two domain kinds genuinely overlap.
model::PhysicalCluster e17_cluster(std::uint64_t seed, bool annotate) {
  auto cluster = bench::racked_cluster(seed);
  if (annotate) workload::annotate_failure_domains(cluster, kPowerDomains);
  return cluster;
}

workload::ChurnOptions churn_options(double load, double horizon,
                                     const model::PhysicalCluster& cluster) {
  workload::ChurnOptions opts =
      bench::host_scale_churn(load, horizon, 10.0, cluster);
  opts.grow_probability = 0.0;  // growth would blur the tier ledger
  opts.replica_probability = 0.8;
  opts.replica_n = 3;
  opts.replica_k = 2;
  opts.gold_fraction = 0.4;
  opts.best_effort_fraction = 0.2;
  return opts;
}

/// Churn + overlapping blast and power failure streams (the power stream
/// needs the *annotated* cluster so generator and orchestrator agree on
/// domain membership; the group member lists travel in the trace).
workload::ChurnTrace make_trace(const model::PhysicalCluster& cluster,
                                double load, double horizon,
                                std::uint64_t seed) {
  const auto copts = churn_options(load, horizon, cluster);
  workload::ChurnTrace trace =
      workload::generate_churn(copts, util::derive_seed(seed, 1));
  workload::FailureOptions fo;
  fo.horizon = horizon;
  fo.blast_mttf = 25.0;
  fo.blast_mttr = 5.0;
  fo.power_mttf = 30.0;
  fo.power_mttr = 6.0;
  fo.power_domains = kPowerDomains;
  workload::merge_events(
      trace,
      workload::generate_failures(fo, cluster, util::derive_seed(seed, 2)));
  return trace;
}

/// Strips the k-of-n spec from every arrive, leaving tiers intact: the
/// unreplicated baseline answers "what did replication itself buy?".
workload::ChurnTrace strip_replicas(workload::ChurnTrace trace) {
  for (workload::TenantEvent& ev : trace.events) {
    ev.replica_n = 0;
    ev.replica_k = 0;
  }
  return trace;
}

orchestrator::OrchestratorOptions e17_options() {
  orchestrator::OrchestratorOptions opts;
  opts.healer.policy = orchestrator::HealPolicy::kRepair;
  opts.healer.tier_aware = true;
  opts.queue_policy = orchestrator::QueuePolicy::kSmallestFirst;
  return opts;
}

struct VariantResult {
  double lost_gold = 0.0;
  double lost_standard = 0.0;
  double lost_best_effort = 0.0;
  std::size_t deferred = 0;
  std::size_t power = 0;
  std::size_t parked = 0;
  std::size_t dropped = 0;
  std::size_t violations = 0;
};

VariantResult run_variant(const model::PhysicalCluster& cluster,
                          const workload::ChurnTrace& trace) {
  orchestrator::Orchestrator orch(cluster, trace.profile, spread_pool(),
                                  e17_options());
  const auto& report = orch.run(trace);
  VariantResult r;
  r.lost_gold = report.tenant_minutes_lost_gold;
  r.lost_standard = report.tenant_minutes_lost_standard;
  r.lost_best_effort = report.tenant_minutes_lost_best_effort;
  r.deferred = report.replica_deferred;
  r.power = report.power_failures;
  r.parked = report.parked;
  r.dropped = report.heal_dropped;
  r.violations = report.invariant_violations.size();
  for (const std::string& v : report.invariant_violations) {
    std::printf("INVARIANT VIOLATION %s\n", v.c_str());
  }
  return r;
}

/// Threads gate: the sharded router with replica_spread must route a
/// replicated batch byte-identically at 1 and 4 worker threads.
bool router_threads_identical(std::uint64_t seed) {
  const auto fabric = e17_cluster(seed, /*annotate=*/true);
  const auto copts = churn_options(0.95, 40.0, fabric);
  const workload::ChurnTrace trace =
      workload::generate_churn(copts, util::derive_seed(seed, 3));

  std::vector<orchestrator::AdmissionRequest> batch;
  for (const workload::TenantEvent& ev : trace.events) {
    if (ev.kind != workload::EventKind::kArrive) continue;
    orchestrator::AdmissionRequest req;
    req.key = ev.tenant;
    req.venv = workload::make_event_venv(trace.profile, ev);
    req.seed = ev.seed;
    batch.push_back(std::move(req));
  }

  std::string sigs[2];
  for (int i = 0; i < 2; ++i) {
    orchestrator::RouterOptions ropts;
    ropts.shards = 4;
    ropts.threads = i == 0 ? 1 : 4;
    ropts.replica_spread = true;
    orchestrator::PlacementRouter router(fabric, ropts);
    router.admit_batch(batch, util::derive_seed(seed, 4));
    sigs[i] = router.decision_signature();
  }
  return sigs[0] == sigs[1];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  const bool smoke = parse_args(argc, argv, {"--smoke"}).contains("--smoke");

  const std::size_t bases =
      smoke ? 2 : std::max<std::size_t>(4, bench_reps() / 8);
  const double horizon = smoke ? 60.0 : 100.0;
  const double load = 0.95;

  std::printf("E17: k-of-n replicas with SLA tiers, anti-affine across "
              "blast + power domains, %zu seed bases%s\n\n",
              bases, smoke ? " (smoke)" : "");

  util::Table table({"variant", "gold lost", "std lost", "b-e lost",
                     "deferred", "power", "parked", "dropped"});

  const char* names[3] = {"replicated", "blind", "unreplicated"};
  double gold_total[3] = {0.0, 0.0, 0.0};
  std::size_t violations = 0;

  util::RunningStats gold[3], standard[3], best_effort[3], deferred[3],
      power[3], parked[3], dropped[3];
  for (std::size_t base = 0; base < bases; ++base) {
    const auto seed = util::derive_seed(env_seed(), 48, base);
    const auto annotated = e17_cluster(seed, /*annotate=*/true);
    const auto bare = e17_cluster(seed, /*annotate=*/false);
    const auto trace = make_trace(annotated, load, horizon, seed);
    const auto stripped = strip_replicas(trace);

    for (int v = 0; v < 3; ++v) {
      const auto& cluster = v == 1 ? bare : annotated;
      const auto& tr = v == 2 ? stripped : trace;
      const VariantResult r = run_variant(cluster, tr);
      gold[v].add(r.lost_gold);
      standard[v].add(r.lost_standard);
      best_effort[v].add(r.lost_best_effort);
      deferred[v].add(static_cast<double>(r.deferred));
      power[v].add(static_cast<double>(r.power));
      parked[v].add(static_cast<double>(r.parked));
      dropped[v].add(static_cast<double>(r.dropped));
      gold_total[v] += r.lost_gold;
      violations += r.violations;
    }
  }
  for (int v = 0; v < 3; ++v) {
    table.add_row({names[v], util::Table::fmt(gold[v].mean(), 1),
                   util::Table::fmt(standard[v].mean(), 1),
                   util::Table::fmt(best_effort[v].mean(), 1),
                   util::Table::fmt(deferred[v].mean(), 1),
                   util::Table::fmt(power[v].mean(), 1),
                   util::Table::fmt(parked[v].mean(), 1),
                   util::Table::fmt(dropped[v].mean(), 1)});
  }
  std::printf("%s", table.to_string().c_str());
  write_file(out_dir() / "replicas_e17.csv", table.to_csv());

  Gates gates;
  gates.count("invariant violations", violations);

  // A fresh re-run and v4 record/replay must reproduce the live decision
  // signature bit-for-bit.
  {
    const auto seed = util::derive_seed(env_seed(), 49);
    const auto cluster = e17_cluster(seed, /*annotate=*/true);
    determinism_gate(gates, cluster, make_trace(cluster, load, horizon, seed),
                     spread_pool, e17_options());
  }

  const bool threads_ok =
      router_threads_identical(util::derive_seed(env_seed(), 50));
  std::printf("determinism: router threads=1 vs threads=4 %s\n",
              threads_ok ? "identical" : "DIVERGED");
  gates.check("threads", threads_ok);

  // Win gate: the full subsystem must lose strictly fewer gold
  // tenant-minutes than both ablations in aggregate.
  gates.check("beats-blind", gold_total[0] < gold_total[1]);
  gates.check("beats-unreplicated", gold_total[0] < gold_total[2]);

  std::printf("\nMeasured finding: replicated gold tenants lose %.1f "
              "tenant-minutes where anti-affinity-blind placement loses "
              "%.1f and unreplicated tenants lose %.1f — spreading a "
              "group across blast and power domains keeps it quorate "
              "through a correlated outage, and a quorate group defers "
              "repair instead of gambling on re-admission into a full "
              "cluster.\n",
              gold_total[0], gold_total[1], gold_total[2]);
  return gates.report();
}
