// E2 — regenerates the paper's **Table 3**: mean mapping ("simulation")
// time per scenario x cluster x heuristic, in seconds.
//
// Expected shape (paper Section 5.2): HMN is the cheapest mapper at every
// ratio (it never retries); costs grow with the guest:host ratio for every
// heuristic; and the switched cluster routes faster than the torus because
// each virtual link has exactly one candidate path.  Absolute times are
// hardware-dependent and much smaller than the paper's 2009 numbers.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  const auto spec = paper_grid();
  const PaperMappers mappers(bench_tries());
  std::printf("Table 3 grid: %zu scenarios x %zu clusters x %zu mappers x "
              "%zu reps\n",
              spec.scenarios.size(), spec.clusters.size(),
              mappers.all().size(), spec.repetitions);

  const auto records = expfw::run_grid(spec, mappers.all());
  const auto summary = expfw::summarize(records);
  const auto table = expfw::render_time_table(
      spec.scenarios, spec.clusters, PaperMappers::names(), summary);

  std::printf("\nTable 3 — mapping time (seconds, mean of valid runs):\n%s",
              table.to_string().c_str());
  write_file(out_dir() / "table3_time.csv", table.to_csv());

  // Shape check: HMN time grows with ratio within each workload block.
  for (const auto kind : spec.clusters) {
    double prev = -1.0;
    bool monotone = true;
    for (std::size_t s = 12; s < 16; ++s) {  // the low-level 20..50:1 block
      const auto& cell = summary.cell(s, kind, "HMN");
      if (cell.map_seconds.count() == 0) continue;
      if (cell.map_seconds.mean() < prev) monotone = false;
      prev = cell.map_seconds.mean();
    }
    std::printf("HMN time monotone in ratio (low-level block, %s): %s\n",
                to_string(kind), monotone ? "yes" : "no");
  }
  return 0;
}
