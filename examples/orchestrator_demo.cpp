// Online orchestrator walkthrough: record a churn trace to a file, read it
// back, and replay it against the paper's switched cluster with background
// defragmentation off and on.
//
// The trace file is the orchestrator's record/replay format (io/trace.h):
// a header frame carrying the guest profile, then one binary frame per
// event whose seed re-materializes the tenant's virtual environment on
// consumption — so the same file replays to bit-identical decisions on any
// machine.  The demo prints the first lines of the trace's readable JSONL
// view.
//
//   $ ./orchestrator_demo [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

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

const orchestrator::OrchestratorReport& replay(
    orchestrator::Orchestrator& orch, const workload::ChurnTrace& trace) {
  return orch.run(trace);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2009;

  // A small but busy workload: ~30 tenants over 80 time units against the
  // 40-host switched cluster, host-scale VMs so admission actually binds.
  const auto cluster =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, seed);
  workload::ChurnOptions opts;
  opts.arrival_rate = 0.4;
  opts.horizon = 80.0;
  opts.mean_lifetime = 20.0;
  opts.min_guests = 4;
  opts.max_guests = 10;
  opts.density = 0.2;
  opts.profile = workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1536.0};
  opts.grow_probability = 0.3;
  opts.max_grow_guests = 3;
  const auto trace = workload::generate_churn(opts, seed);

  // Record.
  const std::filesystem::path path = "orchestrator_trace.bin";
  io::save_trace(path, trace);
  const std::string text = io::trace_to_jsonl(trace);
  std::printf("recorded %zu events to %s; its readable view begins:\n\n",
              trace.events.size(), path.string().c_str());
  std::istringstream lines(text);
  std::string line;
  for (int i = 0; i < 4 && std::getline(lines, line); ++i) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("  ...\n\n");

  // Replay from the file, once per defrag policy.
  const auto loaded = io::load_trace(path);
  if (!loaded.has_value()) {
    std::printf("failed to reload %s\n", path.string().c_str());
    return 1;
  }

  util::Table table({"metric", "defrag off", "defrag on"});
  const orchestrator::OrchestratorReport* reports[2] = {nullptr, nullptr};
  orchestrator::Orchestrator off(cluster, loaded->profile, hmn_pool(), [] {
    orchestrator::OrchestratorOptions o;
    o.defrag_every_departures = 0;
    return o;
  }());
  orchestrator::Orchestrator on(cluster, loaded->profile, hmn_pool(), {});
  reports[0] = &replay(off, *loaded);
  reports[1] = &replay(on, *loaded);

  auto row = [&](const char* name, auto metric, int digits) {
    table.add_row({name, util::Table::fmt(metric(*reports[0]), digits),
                   util::Table::fmt(metric(*reports[1]), digits)});
  };
  using Report = orchestrator::OrchestratorReport;
  row("arrivals", [](const Report& r) { return double(r.arrivals); }, 0);
  row("admitted immediately",
      [](const Report& r) { return double(r.admitted_immediately); }, 0);
  row("backfilled from queue",
      [](const Report& r) { return double(r.admitted_from_queue); }, 0);
  row("abandoned in queue",
      [](const Report& r) { return double(r.abandoned); }, 0);
  row("growths honored", [](const Report& r) {
        return double(r.grown_in_place + r.grown_by_remap);
      }, 0);
  row("acceptance rate",
      [](const Report& r) { return r.acceptance_rate(); }, 3);
  row("mean queue wait",
      [](const Report& r) { return r.mean_queue_wait(); }, 2);
  row("defrag passes",
      [](const Report& r) { return double(r.defrag.passes); }, 0);
  row("guests migrated",
      [](const Report& r) { return double(r.defrag.migrations); }, 0);
  row("lbf reduction (total)",
      [](const Report& r) { return r.defrag.lbf_reduction; }, 1);
  row("decision p99 (us)",
      [](const Report& r) { return r.latency_percentile_us(99.0); }, 0);
  std::printf("%s\n", table.to_string().c_str());

  // The replayed decisions are bit-identical to a fresh run of the same
  // trace — the record/replay guarantee.
  orchestrator::Orchestrator fresh(cluster, trace.profile, hmn_pool(), {});
  const bool identical = fresh.run(trace).decision_signature() ==
                         reports[1]->decision_signature();
  std::printf("replay from file %s the in-memory run (%zu decisions)\n",
              identical ? "matches" : "DIVERGES from",
              reports[1]->decisions.size());
  return identical ? 0 : 1;
}
