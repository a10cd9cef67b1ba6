// E11 — multi-tenant admission study (extension; the paper assumes one
// tester at a time, Section 3.2).
//
// Testers arrive with independent virtual environments; the TenancyManager
// admits each against the residual capacity.  Compares admission mappers:
//
//   * HMN (load-balancing) — spreads every tenant thin, so later tenants
//     see fragmented capacity;
//   * MinHosts (consolidating) — packs each tenant tight, keeping whole
//     hosts free for later arrivals — the use case the paper's Section 6
//     names for the min-hosts objective ("one could be interested in a
//     mapping whose goal is to minimize the amount of hosts used").
//
// Reported: tenants admitted before first rejection, total guests placed,
// and final memory utilization.
#include "bench_common.h"

#include "emulator/tenancy.h"
#include "extensions/min_hosts_mapper.h"
#include "util/stats.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;

extensions::HeuristicPool minhosts_pool() {
  extensions::HeuristicPool pool;
  pool.add(std::make_unique<extensions::MinHostsMapper>());
  return pool;
}

model::VirtualEnvironment tenant_venv(const model::PhysicalCluster& cluster,
                                      util::Rng& rng) {
  workload::VenvGenOptions opts;
  // Host-scale VMs (0.5-1.5 GB on 1-3 GB hosts): bin-packing fragmentation
  // is real at this item size, which is where the admission policies
  // diverge.  Small VMs (the paper's 128-256 MB) pack tightly under any
  // policy.
  opts.guest_count = 8;
  opts.density = 0.2;
  opts.profile = workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1536.0};
  opts.normalize_to = &cluster;
  opts.capacity_fraction = 1.0;  // tenants are sized absolutely
  return workload::generate_venv(opts, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  parse_args(argc, argv);

  const std::size_t reps = std::max<std::size_t>(bench_reps() / 3, 5);
  util::Table table({"admission mapper", "tenants admitted (mean)",
                     "guests placed (mean)", "final mem util (mean)"});
  std::printf("multi-tenant admission on the paper's switched cluster, "
              "%zu reps\n", reps);

  struct Policy {
    const char* name;
    extensions::HeuristicPool (*make)();
  };
  for (const Policy& policy :
       {Policy{"HMN (balance)", &hmn_pool},
        Policy{"MinHosts (consolidate)", &minhosts_pool}}) {
    util::RunningStats admitted, guests, mem_util;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto seed = util::derive_seed(env_seed(), 31, rep);
      emulator::TenancyManager mgr(
          workload::make_paper_cluster(workload::ClusterKind::kSwitched,
                                       seed),
          policy.make());
      util::Rng rng(seed + 1);
      std::size_t count = 0;
      while (count < 64) {
        auto venv = tenant_venv(mgr.cluster(), rng);
        if (!mgr.admit("t" + std::to_string(count), std::move(venv),
                       util::derive_seed(seed, count))
                 .ok()) {
          break;
        }
        ++count;
      }
      admitted.add(static_cast<double>(count));
      guests.add(static_cast<double>(mgr.utilization().guests));
      mem_util.add(mgr.utilization().mem_fraction);
    }
    table.add_row({policy.name, util::Table::fmt(admitted.mean(), 1),
                   util::Table::fmt(guests.mean(), 0),
                   util::Table::fmt(mem_util.mean(), 3)});
  }
  std::printf("\n%s", table.to_string().c_str());
  write_file(out_dir() / "tenancy_admission.csv", table.to_csv());
  std::printf("\nMeasured finding: balanced admission (HMN) matches or "
              "slightly beats consolidation even with host-scale VMs —\n"
              "equalized residuals leave every host with a usable hole for "
              "the next large item, while first-fit-decreasing\n"
              "leaves a mix of crammed and empty hosts whose *average* hole "
              "is no bigger.  The min-hosts objective's real value\n"
              "is operational (whole hosts freed for maintenance or "
              "exclusive use), not admission rate.\n");
  return 0;
}
