// E3 — regenerates the paper's **Figure 1**: HMN mapping time (mean and
// standard deviation) as a function of the number of virtual links actually
// being mapped, on the torus cluster.
//
// Expected shape: time grows superlinearly-ish with the number of
// inter-host links (each link is one A*Prune run; wider instances also
// lower residual bandwidth diversity), with visible variance because links
// between co-located guests are "handled inside the host" and never routed
// — so the routed-link count itself varies per repetition.  The paper's
// companion observation that the switched cluster maps in well under a
// second at every size is checked alongside.
#include "bench_common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace hmn;
  using namespace hmn::bench;
  parse_args(argc, argv);

  // Sweep the full ratio range on the torus (both workload presets), HMN
  // only — Figure 1 plots HMN alone.
  expfw::GridSpec spec = paper_grid();
  spec.clusters = {workload::ClusterKind::kTorus2D,
                   workload::ClusterKind::kSwitched};
  const core::HmnMapper hmn_mapper;
  std::printf("Figure 1 sweep: %zu scenarios x %zu reps (HMN only)\n",
              spec.scenarios.size(), spec.repetitions);

  const auto records = expfw::run_grid(spec, {&hmn_mapper});
  const auto summary = expfw::summarize(records);

  const auto pts = expfw::figure1_series(
      spec.scenarios, workload::ClusterKind::kTorus2D, "HMN", summary);
  std::printf("\nFigure 1 — HMN mapping time vs. virtual links mapped "
              "(torus cluster):\n%s",
              expfw::render_series(pts, "links mapped", "map time (s)")
                  .c_str());

  {
    const auto path = out_dir() / "figure1_hmn_torus.csv";
    util::CsvWriter csv(path.string());
    csv.row({"links_mapped_mean", "map_seconds_mean", "map_seconds_stddev",
             "scenario"});
    for (const auto& p : pts) {
      csv.row({util::CsvWriter::num(p.x), util::CsvWriter::num(p.mean),
               util::CsvWriter::num(p.stddev), p.label});
    }
    csv_written(csv, path);
  }

  // Per-repetition scatter: the paper notes the time "varied considerably
  // in different simulations of a same scenario" because the number of
  // links actually mapped varies with co-location; the scatter makes that
  // mechanism plottable.
  {
    const auto path = out_dir() / "figure1_scatter.csv";
    util::CsvWriter scatter(path.string());
    scatter.row({"scenario", "rep", "links_routed", "map_seconds"});
    for (const auto& r : records) {
      if (!r.ok || r.cluster != workload::ClusterKind::kTorus2D) continue;
      scatter.row({spec.scenarios[r.scenario_index].label(),
                   std::to_string(r.repetition),
                   std::to_string(r.stats.links_routed),
                   util::CsvWriter::num(r.stats.total_seconds)});
    }
    csv_written(scatter, path);
  }

  // Companion check (Section 5.2): switched-cluster mapping time stays
  // far below the torus time at the largest sizes.
  const auto sw = expfw::figure1_series(
      spec.scenarios, workload::ClusterKind::kSwitched, "HMN", summary);
  if (!pts.empty() && !sw.empty()) {
    std::printf("\nlargest instance: torus %.4f s vs switched %.4f s\n",
                pts.back().mean, sw.back().mean);
  }
  return 0;
}
