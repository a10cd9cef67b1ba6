// Fault-injection walkthrough: a churn workload on the paper's switched
// cluster while hosts and links fail and recover, healed by the
// orchestrator's transactional Healer.
//
// The failure stream (workload::generate_failures) overlays exponential
// MTTF/MTTR renewal processes per host and per physical link onto the
// tenant timeline; everything rides the same binary trace format, so the
// printed decision log replays bit-identically from the saved file.
//
//   $ ./failure_demo [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/rng.h"
#include "core/hmn_mapper.h"
#include "io/trace.h"
#include "orchestrator/orchestrator.h"
#include "util/table.h"
#include "workload/scenario.h"

using namespace hmn;

namespace {

extensions::HeuristicPool hmn_pool() {
  extensions::HeuristicPool pool;
  pool.add(std::make_unique<core::HmnMapper>());
  return pool;
}

bool is_heal_decision(orchestrator::Decision d) {
  switch (d) {
    case orchestrator::Decision::kHealed:
    case orchestrator::Decision::kDegraded:
    case orchestrator::Decision::kRestored:
    case orchestrator::Decision::kParked:
    case orchestrator::Decision::kReadmitted:
    case orchestrator::Decision::kHealDropped:
      return true;
    default:
      return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2009;

  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, seed);

  // A busy tenant stream...
  workload::ChurnOptions copts;
  copts.arrival_rate = 0.5;
  copts.horizon = 60.0;
  copts.mean_lifetime = 15.0;
  copts.min_guests = 4;
  copts.max_guests = 10;
  copts.density = 0.2;
  copts.profile = workload::high_level_profile();
  copts.profile.mem_mb = {512.0, 1536.0};
  workload::ChurnTrace trace = workload::generate_churn(copts, seed);

  // ...interleaved with substrate failures: every host and link is an
  // independent up/down renewal process.
  workload::FailureOptions fopts;
  fopts.horizon = copts.horizon;
  fopts.host_mttf = 120.0;
  fopts.host_mttr = 5.0;
  fopts.link_mttf = 100.0;
  fopts.link_mttr = 5.0;
  workload::merge_events(
      trace,
      workload::generate_failures(fopts, cluster, util::derive_seed(seed, 9)));

  const std::filesystem::path path = "failure_trace.bin";
  io::save_trace(path, trace);
  std::printf("recorded %zu events (tenant churn + failures) to %s\n\n",
              trace.events.size(), path.string().c_str());

  orchestrator::Orchestrator orch(cluster, trace.profile, hmn_pool(), {});
  const auto& report = orch.run(trace);

  // Narrate the failure/healing part of the decision log.
  std::printf("failure and healing decisions:\n");
  for (const auto& d : report.decisions) {
    const bool failure_event = workload::is_failure_event(d.kind);
    if (!failure_event && !is_heal_decision(d.decision)) continue;
    if (failure_event && !is_heal_decision(d.decision)) {
      std::printf("  t=%6.2f  %-14s element %u\n", d.time,
                  to_string(d.decision), d.tenant);
    } else {
      std::printf("  t=%6.2f    -> %-12s tenant %u%s\n", d.time,
                  to_string(d.decision), d.tenant,
                  d.queue_wait > 0.0 ? "  (after outage)" : "");
    }
  }

  util::Table table({"metric", "value"});
  auto row = [&](const char* name, double v, int digits) {
    table.add_row({name, util::Table::fmt(v, digits)});
  };
  row("host failures", double(report.host_failures), 0);
  row("link failures", double(report.link_failures), 0);
  row("recoveries", double(report.recoveries), 0);
  row("healed in place", double(report.healed), 0);
  row("degraded (dark links)", double(report.degraded), 0);
  row("restored", double(report.restored), 0);
  row("parked (evicted)", double(report.parked), 0);
  row("readmitted", double(report.readmitted), 0);
  row("heal-dropped", double(report.heal_dropped), 0);
  row("tenant-minutes lost", report.tenant_minutes_lost, 2);
  row("degraded-minutes", report.degraded_minutes, 2);
  row("invariant violations", double(report.invariant_violations.size()), 0);
  std::printf("\n%s\n", table.to_string().c_str());

  // The saved file replays bit-identically — failures included.
  const auto loaded = io::load_trace(path);
  if (!loaded.has_value()) {
    std::printf("failed to reload %s\n", path.string().c_str());
    return 1;
  }
  orchestrator::Orchestrator replayed(cluster, loaded->profile, hmn_pool(),
                                      {});
  const bool identical = replayed.run(*loaded).decision_signature() ==
                         report.decision_signature();
  std::printf("replay from file %s the in-memory run (%zu decisions)\n",
              identical ? "matches" : "DIVERGES from",
              report.decisions.size());
  const bool healthy = report.invariant_violations.empty();
  if (!healthy) {
    for (const auto& v : report.invariant_violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
  }
  return identical && healthy ? 0 : 1;
}
