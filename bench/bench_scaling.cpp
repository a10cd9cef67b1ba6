// E10 — scalability beyond the paper: HMN mapping time as the *cluster*
// grows (the paper fixes 40 hosts and grows only the virtual side).
//
// Sweeps square-ish 2-D tori from 40 to 640 hosts at a fixed 10:1 ratio
// and reports per-stage time.  Expectation: Networking dominates and grows
// with links x (per-A*Prune cost on the larger fabric); Hosting's host
// order, kept per assignment, grows mildly; the mapper stays interactive
// (sub-second into hundreds of hosts), supporting the paper's closing
// claim that automatic mapping scales to "large virtualized environments".
#include "bench_common.h"

#include "topology/topologies.h"
#include "util/stats.h"
#include "workload/host_generator.h"
#include "workload/venv_generator.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  const std::size_t reps = std::max<std::size_t>(bench_reps() / 6, 3);
  struct Size {
    std::size_t rows, cols;
  };
  const std::vector<Size> sizes{{8, 5}, {8, 10}, {16, 10}, {16, 20}};

  util::Table table({"hosts", "guests", "vlinks", "hosting (s)",
                     "migration (s)", "networking (s)", "total (s)",
                     "valid"});
  const core::HmnMapper mapper;
  std::printf("cluster-size scaling sweep (10:1 ratio, density 0.01, "
              "%zu reps)\n", reps);

  for (const Size& size : sizes) {
    const std::size_t hosts = size.rows * size.cols;
    // Keep the workload's 30-60 ms latency envelope satisfiable at every
    // cluster size (the paper's 5 ms/hop over an 8x5 torus gives a 30 ms
    // diameter — exactly the tightest virtual bound): scale per-hop
    // latency down with the torus diameter so the sweep measures mapping
    // *cost*, not latency feasibility.
    const double diameter =
        static_cast<double>(size.rows / 2 + size.cols / 2);
    model::LinkProps link = workload::paper_link_props();
    link.latency_ms = std::min(5.0, 30.0 / diameter);
    util::RunningStats hosting, migration, networking, total;
    std::size_t guests = 0, vlinks = 0, valid_runs = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto seed = util::derive_seed(env_seed(), hosts, rep);
      util::Rng rng(seed);
      auto caps = workload::generate_hosts(
          hosts, workload::paper_host_profile(), rng);
      const auto cluster = model::PhysicalCluster::build(
          topology::torus_2d(size.rows, size.cols), std::move(caps), link);

      workload::VenvGenOptions vopts;
      vopts.guest_count = hosts * 10;
      vopts.density = 0.01;
      vopts.profile = workload::high_level_profile();
      vopts.normalize_to = &cluster;
      const auto venv = workload::generate_venv(vopts, rng);
      guests = venv.guest_count();
      vlinks = venv.link_count();

      const auto out = mapper.map(cluster, venv, seed);
      if (!out.ok()) continue;
      ++valid_runs;
      hosting.add(out.stats.hosting_seconds);
      migration.add(out.stats.migration_seconds);
      networking.add(out.stats.networking_seconds);
      total.add(out.stats.total_seconds);
    }
    table.add_row({std::to_string(hosts), std::to_string(guests),
                   std::to_string(vlinks),
                   util::Table::fmt(hosting.mean(), 4),
                   util::Table::fmt(migration.mean(), 4),
                   util::Table::fmt(networking.mean(), 4),
                   util::Table::fmt(total.mean(), 4),
                   std::to_string(valid_runs) + "/" + std::to_string(reps)});
  }
  std::printf("\n%s", table.to_string().c_str());
  write_file(out_dir() / "scaling_cluster_size.csv", table.to_csv());
  return 0;
}
