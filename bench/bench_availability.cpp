// E13 — availability under substrate failures (extension; the paper's
// motivation for emulation is that real testbeds misbehave, Section 1).
//
// The E12 churn workload runs against the paper's switched cluster while
// hosts and links fail and recover as independent alternating-renewal
// processes (exponential MTTF/MTTR, workload::generate_failures).  Two
// policies react to every failure:
//
//   repair        the Healer's transactional surgery: re-route around dead
//                 links, re-place only the guests of dead hosts, keep
//                 tenants whose links cannot route in the Degraded state,
//                 park true evictions with exponential backoff;
//   drop-readmit  the literature's baseline: evict every impacted tenant
//                 wholesale and re-admit it from scratch.
//
// Why repair wins on a switched cluster: every host hangs off the fabric
// by few links, so a link failure leaves guests healthy but paths
// unroutable — repair keeps the tenant Degraded (experiment state intact,
// zero tenant-minutes lost) where drop-readmit evicts it into a cluster
// already at capacity and usually cannot put it back.
//
// Reported per (host-MTTF, policy) cell: tenant-minutes lost (absence
// windows of evicted tenants), degraded-minutes (retained but dark),
// in-place heals / degradations / evictions / re-admissions / drops, and
// healing latency p50/p99.  Exits nonzero if any invariant-auditor
// violation appears, if a re-run or a replay of a recorded failure trace
// diverges, or if healing retains fewer tenant-minutes than drop-and-readmit
// on any seed base.  `--smoke` runs a reduced grid with the same checks for
// CI.
//
// E15 (`--e15`) — correlated blast-radius failures vs availability-aware
// admission.  The failure stream is blast-only (a switch and its attached
// subtree fail atomically, Weibull MTTF) and both orchestrators heal with
// the same repair policy; they differ only in admission: *aware* biases
// placement by per-host EWMA availability and reserves spare-capacity
// headroom for healing, *blind* is the stock admission path.  Under
// repeated blasts the flaky racks accumulate low availability, aware
// admission routes new tenants around them, and the next blast strands
// fewer tenants.  Gates: aware must lose strictly fewer tenant-minutes
// than blind in aggregate over the sweep; with failures disabled the two
// must produce byte-identical decision signatures (the invisibility
// invariant); and a fresh re-run and a recorded trace must both
// reproduce the live signature.
#include "bench_common.h"

#include "orchestrator/orchestrator.h"
#include "util/stats.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;

/// The E12 churn shape with shorter lifetimes and milder growth.
workload::ChurnOptions churn_options(double load, double horizon,
                                     const model::PhysicalCluster& cluster) {
  workload::ChurnOptions opts =
      bench::host_scale_churn(load, horizon, 10.0, cluster);
  opts.grow_probability = 0.1;
  opts.max_grow_guests = 2;
  return opts;
}

workload::ChurnTrace make_failure_trace(const model::PhysicalCluster& cluster,
                                        double load, double horizon,
                                        double host_mttf, double link_mttf,
                                        std::uint64_t seed) {
  const auto copts = churn_options(load, horizon, cluster);
  workload::ChurnTrace trace =
      workload::generate_churn(copts, util::derive_seed(seed, 1));
  workload::FailureOptions fo;
  fo.horizon = horizon;
  fo.host_mttf = host_mttf;
  fo.host_mttr = 4.0;
  fo.link_mttf = link_mttf;
  fo.link_mttr = 4.0;
  workload::merge_events(
      trace, workload::generate_failures(fo, cluster, util::derive_seed(seed, 2)));
  return trace;
}

orchestrator::OrchestratorOptions policy_options(orchestrator::HealPolicy p) {
  orchestrator::OrchestratorOptions opts;
  opts.healer.policy = p;
  return opts;
}

/// Latency of every in-place heal attempt: the healed, degraded and
/// restored decisions.
std::vector<double> heal_latencies_us(
    const orchestrator::OrchestratorReport& report) {
  std::vector<double> out;
  for (const orchestrator::EventDecision& d : report.decisions) {
    if (d.decision == orchestrator::Decision::kHealed ||
        d.decision == orchestrator::Decision::kDegraded ||
        d.decision == orchestrator::Decision::kRestored) {
      out.push_back(d.latency_us);
    }
  }
  return out;
}

// --- E15: correlated blasts, availability-aware vs blind admission -------

workload::ChurnTrace make_blast_trace(const model::PhysicalCluster& cluster,
                                      double load, double horizon,
                                      double blast_mttf, std::uint64_t seed) {
  const auto copts = churn_options(load, horizon, cluster);
  workload::ChurnTrace trace =
      workload::generate_churn(copts, util::derive_seed(seed, 1));
  if (blast_mttf > 0.0) {
    workload::FailureOptions fo;
    fo.horizon = horizon;
    fo.blast_mttf = blast_mttf;
    fo.blast_mttr = 6.0;
    fo.mttf_dist = workload::MttfDistribution::kWeibull;
    workload::merge_events(trace, workload::generate_failures(
                                      fo, cluster, util::derive_seed(seed, 2)));
  }
  return trace;
}

orchestrator::OrchestratorOptions e15_options(bool aware) {
  orchestrator::OrchestratorOptions opts;
  opts.healer.policy = orchestrator::HealPolicy::kRepair;
  opts.availability_aware = aware;
  return opts;
}

int run_e15(bool smoke) {
  using namespace hmn::bench;
  const std::size_t bases =
      smoke ? 2 : std::max<std::size_t>(4, bench_reps() / 8);
  const double horizon = smoke ? 60.0 : 100.0;
  const double load = 0.95;
  const std::vector<double> mttfs =
      smoke ? std::vector<double>{25.0} : std::vector<double>{20.0, 40.0};

  std::printf("E15: blast-radius failures, availability-aware vs blind "
              "admission, %zu seed bases%s\n\n",
              bases, smoke ? " (smoke)" : "");

  util::Table table({"blast mttf", "admission", "lost t-min", "degraded t-min",
                     "blasts", "parked", "readmit", "dropped"});

  std::vector<double> lost_aware(bases, 0.0);
  std::vector<double> lost_blind(bases, 0.0);
  std::size_t violations = 0;

  for (std::size_t mi = 0; mi < mttfs.size(); ++mi) {
    for (const bool aware : {true, false}) {
      util::RunningStats lost, degraded_min, blasts, parked, readmitted,
          dropped;
      for (std::size_t base = 0; base < bases; ++base) {
        const auto seed = util::derive_seed(env_seed(), 45, mi, base);
        const auto cluster = racked_cluster(seed);
        const auto trace =
            make_blast_trace(cluster, load, horizon, mttfs[mi], seed);
        orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(),
                                        e15_options(aware));
        const auto& report = orch.run(trace);

        lost.add(report.tenant_minutes_lost);
        degraded_min.add(report.degraded_minutes);
        blasts.add(static_cast<double>(report.blast_failures));
        parked.add(static_cast<double>(report.parked));
        readmitted.add(static_cast<double>(report.readmitted));
        dropped.add(static_cast<double>(report.heal_dropped));
        violations += report.invariant_violations.size();
        for (const std::string& v : report.invariant_violations) {
          std::printf("INVARIANT VIOLATION [mttf %.0f %s base %zu] %s\n",
                      mttfs[mi], aware ? "aware" : "blind", base, v.c_str());
        }
        (aware ? lost_aware : lost_blind)[base] += report.tenant_minutes_lost;
      }
      table.add_row({util::Table::fmt(mttfs[mi], 0), aware ? "aware" : "blind",
                     util::Table::fmt(lost.mean(), 1),
                     util::Table::fmt(degraded_min.mean(), 1),
                     util::Table::fmt(blasts.mean(), 1),
                     util::Table::fmt(parked.mean(), 1),
                     util::Table::fmt(readmitted.mean(), 1),
                     util::Table::fmt(dropped.mean(), 1)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  write_file(out_dir() / "availability_e15.csv", table.to_csv());

  Gates gates;
  gates.count("invariant violations", violations);

  // Invisibility gate: with the failure stream disabled, aware and blind
  // admission must make byte-identical decisions.
  {
    const auto seed = util::derive_seed(env_seed(), 46);
    const auto cluster = racked_cluster(seed);
    const auto calm = make_blast_trace(cluster, load, horizon, 0.0, seed);
    orchestrator::Orchestrator aware_orch(cluster, calm.profile, hmn_pool(),
                                          e15_options(true));
    orchestrator::Orchestrator blind_orch(cluster, calm.profile, hmn_pool(),
                                          e15_options(false));
    const bool invisible = aware_orch.run(calm).decision_signature() ==
                           blind_orch.run(calm).decision_signature();
    std::printf("\ninvisibility (no failures): aware vs blind %s\n",
                invisible ? "identical" : "DIVERGED");
    gates.check("invisibility", invisible);
  }

  // A blast-laden trace must survive a re-run and trace record/replay.
  {
    const auto seed = util::derive_seed(env_seed(), 47);
    const auto cluster = racked_cluster(seed);
    determinism_gate(
        gates, cluster,
        make_blast_trace(cluster, load, horizon, mttfs[0], seed), hmn_pool,
        e15_options(true));
  }

  // Win gate: aware must lose strictly fewer tenant-minutes in aggregate.
  double total_aware = 0.0, total_blind = 0.0;
  for (std::size_t base = 0; base < bases; ++base) {
    total_aware += lost_aware[base];
    total_blind += lost_blind[base];
    std::printf("seed base %zu: aware lost %.2f t-min, blind lost %.2f\n",
                base, lost_aware[base], lost_blind[base]);
  }
  gates.check("aware-wins", total_aware < total_blind);

  std::printf("\nMeasured finding: under correlated blast failures, "
              "availability-aware admission loses %.1f tenant-minutes total "
              "where blind admission loses %.1f — steering new tenants away "
              "from blast-scarred racks (and holding back healing headroom) "
              "shrinks the set a repeat blast strands.\n",
              total_aware, total_blind);
  return gates.report();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  const auto flags = parse_args(argc, argv, {"--smoke", "--e15"});
  const bool smoke = flags.contains("--smoke");
  if (flags.contains("--e15")) return run_e15(smoke);

  const std::size_t bases =
      smoke ? 2 : std::max<std::size_t>(5, bench_reps() / 6);
  const double horizon = smoke ? 50.0 : 80.0;
  const double load = 0.95;
  const double link_mttf = 60.0;
  std::vector<double> mttfs = smoke ? std::vector<double>{60.0}
                                    : std::vector<double>{30.0, 60.0, 120.0};

  std::printf("availability under host/link failures, paper switched "
              "cluster, %zu seed bases%s\n\n",
              bases, smoke ? " (smoke)" : "");

  util::Table table({"host mttf", "policy", "lost t-min", "degraded t-min",
                     "healed", "degraded", "parked", "readmit", "dropped",
                     "heal p50 us", "heal p99 us"});

  // Per-base tenant-minutes lost, summed over the MTTF sweep: the win
  // criterion is per seed base, not just on the mean.
  std::vector<double> lost_repair(bases, 0.0);
  std::vector<double> lost_drop(bases, 0.0);
  std::size_t violations = 0;

  const orchestrator::HealPolicy policies[] = {
      orchestrator::HealPolicy::kRepair,
      orchestrator::HealPolicy::kDropReadmit};
  for (std::size_t mi = 0; mi < mttfs.size(); ++mi) {
    for (const auto policy : policies) {
      const bool repair = policy == orchestrator::HealPolicy::kRepair;
      util::RunningStats lost, degraded_min, healed, degraded, parked,
          readmitted, dropped, p50, p99;
      for (std::size_t base = 0; base < bases; ++base) {
        const auto seed = util::derive_seed(env_seed(), 43, mi, base);
        const auto cluster = workload::make_paper_cluster(
            workload::ClusterKind::kSwitched, seed);
        const auto trace = make_failure_trace(cluster, load, horizon,
                                              mttfs[mi], link_mttf, seed);
        orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(),
                                        policy_options(policy));
        const auto& report = orch.run(trace);

        lost.add(report.tenant_minutes_lost);
        degraded_min.add(report.degraded_minutes);
        healed.add(static_cast<double>(report.healed + report.restored));
        degraded.add(static_cast<double>(report.degraded));
        parked.add(static_cast<double>(report.parked));
        readmitted.add(static_cast<double>(report.readmitted));
        dropped.add(static_cast<double>(report.heal_dropped));
        const std::vector<double> heal_us = heal_latencies_us(report);
        p50.add(util::percentile(heal_us, 50.0));
        p99.add(util::percentile(heal_us, 99.0));
        violations += report.invariant_violations.size();
        for (const std::string& v : report.invariant_violations) {
          std::printf("INVARIANT VIOLATION [mttf %.0f %s base %zu] %s\n",
                      mttfs[mi], repair ? "repair" : "drop", base, v.c_str());
        }
        (repair ? lost_repair : lost_drop)[base] +=
            report.tenant_minutes_lost;
      }
      table.add_row({util::Table::fmt(mttfs[mi], 0),
                     repair ? "repair" : "drop-readmit",
                     util::Table::fmt(lost.mean(), 1),
                     util::Table::fmt(degraded_min.mean(), 1),
                     util::Table::fmt(healed.mean(), 1),
                     util::Table::fmt(degraded.mean(), 1),
                     util::Table::fmt(parked.mean(), 1),
                     util::Table::fmt(readmitted.mean(), 1),
                     util::Table::fmt(dropped.mean(), 1),
                     util::Table::fmt(p50.mean(), 0),
                     util::Table::fmt(p99.mean(), 0)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  write_file(out_dir() / "availability.csv", table.to_csv());

  Gates gates;
  gates.count("invariant violations", violations);

  // A failure-laden trace must re-run and record -> trace -> replay to
  // bit-identical decisions (healing included).
  {
    const auto seed = util::derive_seed(env_seed(), 44);
    const auto cluster =
        workload::make_paper_cluster(workload::ClusterKind::kSwitched, seed);
    determinism_gate(gates, cluster,
                     make_failure_trace(cluster, load, horizon, mttfs[0],
                                        link_mttf, seed),
                     hmn_pool,
                     policy_options(orchestrator::HealPolicy::kRepair));
  }

  // Healing must retain at least as many tenant-minutes as drop-and-readmit
  // on EVERY seed base, and strictly more in aggregate.
  bool wins = true;
  double total_repair = 0.0, total_drop = 0.0;
  for (std::size_t base = 0; base < bases; ++base) {
    total_repair += lost_repair[base];
    total_drop += lost_drop[base];
    if (lost_repair[base] > lost_drop[base] + 1e-9) {
      wins = false;
      std::printf("seed base %zu: repair lost %.2f t-min vs drop %.2f — "
                  "healing LOST\n",
                  base, lost_repair[base], lost_drop[base]);
    }
  }
  if (total_drop > 0.0 && !(total_repair < total_drop)) wins = false;
  gates.check("per-base win", wins);

  std::printf("\nMeasured finding: over the MTTF sweep, transactional "
              "healing loses %.1f tenant-minutes total where "
              "drop-and-readmit loses %.1f; on the switched fabric a dead "
              "access link strands paths, not guests, so repair keeps the "
              "tenant (Degraded at worst) while the baseline evicts into a "
              "full cluster.\n",
              total_repair, total_drop);
  return gates.report();
}
