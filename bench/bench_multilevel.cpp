// E16 — multilevel coarsen–map–refine vs flat HMN admission at scale.
//
// E10/E14 established that flat admission cost grows superlinearly with
// fabric size (stage passes plus A*Prune on the full graph).  The
// multilevel mapper (src/multilevel) attacks the same problem without
// sharding: coarsen the fabric once into a structural pyramid, solve the
// paper's stages on the coarsest level, then refine locally.  E16 sweeps
// switch-tree fabrics of {1000, 4000, 10000} hosts, admits the same tenant
// workload through a flat HmnMapper and a MultilevelMapper sharing a
// prebuilt hierarchy (exactly how the PlacementRouter deploys it), and
// reports per-admission latency, speedup, and objective (Eq. 10) deltas.
//
// Gates (exit nonzero on violation):
//   * validity — every multilevel mapping passes core::validate_mapping;
//   * determinism — re-running an admission reproduces a byte-identical
//     mapping fingerprint (core::fingerprint);
//   * coverage — multilevel succeeds whenever flat does, and the pyramid
//     (levels_used > 0) carries at least one admission per size;
//   * quality — median relative objective delta within 5% of flat;
//   * full run only: >= 5x median admission speedup at 10000 hosts.
// `--smoke` runs the 1000-host row with reduced repetitions for CI.
#include "bench_common.h"

#include <vector>

#include "core/objective.h"
#include "core/validator.h"
#include "multilevel/multilevel_mapper.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;

model::VirtualEnvironment make_tenant(const model::PhysicalCluster& fabric,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  workload::GuestProfile profile = workload::high_level_profile();
  profile.mem_mb = {512.0, 1536.0};
  workload::VenvGenOptions vopts;
  vopts.guest_count = 24 + rng.index(25);  // 24-48 guests
  vopts.density = 0.2;
  vopts.profile = profile;
  vopts.normalize_to = &fabric;
  return workload::generate_venv(vopts, rng);
}

struct SizeResult {
  double hierarchy_seconds = 0.0;
  double median_flat_ms = 0.0;
  double median_ml_ms = 0.0;
  double median_speedup = 0.0;
  double median_obj_delta = 0.0;  // relative to flat, signed
  std::size_t flat_ok = 0;
  std::size_t ml_ok = 0;
  std::size_t pyramid_used = 0;
  std::size_t reps = 0;
  bool valid = true;
  bool deterministic = true;
  bool covered = true;
};

SizeResult run_size(std::size_t hosts, std::size_t reps,
                    std::uint64_t seed) {
  SizeResult out;
  out.reps = reps;
  const auto fabric =
      bench::scaled_switch_tree(hosts, util::derive_seed(seed, 1));

  const core::HmnMapper flat;
  multilevel::MultilevelOptions mopts;
  util::Timer hier_timer;
  auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
      multilevel::build_hierarchy(fabric, mopts.phys));
  out.hierarchy_seconds = hier_timer.elapsed_seconds();
  const multilevel::MultilevelMapper ml(mopts, hier);

  std::vector<double> flat_ms, ml_ms, speedups, obj_deltas;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto venv = make_tenant(fabric, util::derive_seed(seed, 2, rep));
    const std::uint64_t map_seed = util::derive_seed(seed, 3, rep);

    util::Timer t_flat;
    const core::MapOutcome flat_out = flat.map(fabric, venv, map_seed);
    const double flat_t = t_flat.elapsed_seconds();

    util::Timer t_ml;
    const core::MapOutcome ml_out = ml.map(fabric, venv, map_seed);
    const double ml_t = t_ml.elapsed_seconds();

    if (flat_out.ok()) ++out.flat_ok;
    if (!ml_out.ok()) {
      if (flat_out.ok()) {
        out.covered = false;
        std::printf("COVERAGE VIOLATION %zu hosts rep %zu: flat admitted, "
                    "multilevel rejected (%s)\n",
                    hosts, rep, ml_out.detail.c_str());
      }
      continue;
    }
    ++out.ml_ok;
    if (ml_out.stats.levels_used > 0) ++out.pyramid_used;

    const auto report = core::validate_mapping(fabric, venv, *ml_out.mapping);
    if (!report.ok()) {
      out.valid = false;
      std::printf("VALIDITY VIOLATION %zu hosts rep %zu: %s\n", hosts, rep,
                  report.summary().c_str());
    }
    const core::MapOutcome again = ml.map(fabric, venv, map_seed);
    if (!again.ok() || core::fingerprint(*again.mapping) !=
                           core::fingerprint(*ml_out.mapping)) {
      out.deterministic = false;
      std::printf("DETERMINISM VIOLATION %zu hosts rep %zu: repeated "
                  "admission produced a different mapping\n",
                  hosts, rep);
    }

    flat_ms.push_back(flat_t * 1e3);
    ml_ms.push_back(ml_t * 1e3);
    if (flat_out.ok()) {
      speedups.push_back(flat_t / std::max(ml_t, 1e-9));
      const double obj_flat =
          core::load_balance_factor(fabric, venv, *flat_out.mapping);
      const double obj_ml =
          core::load_balance_factor(fabric, venv, *ml_out.mapping);
      obj_deltas.push_back((obj_ml - obj_flat) /
                           std::max(obj_flat, 1e-12));
    }
  }
  out.median_flat_ms = util::percentile(flat_ms, 50.0);
  out.median_ml_ms = util::percentile(ml_ms, 50.0);
  out.median_speedup = util::percentile(speedups, 50.0);
  out.median_obj_delta = util::percentile(obj_deltas, 50.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmn::bench;
  const bool smoke = parse_args(argc, argv, {"--smoke"}).contains("--smoke");

  const std::vector<std::size_t> host_sizes =
      smoke ? std::vector<std::size_t>{1000}
            : std::vector<std::size_t>{1000, 4000, 10000};
  const std::size_t reps =
      smoke ? std::min<std::size_t>(bench_reps(), 5) : bench_reps();

  std::printf("multilevel vs flat admission, switch-tree fabrics%s\n\n",
              smoke ? " (smoke)" : "");
  util::Table table({"hosts", "hier ms", "flat ms", "ml ms", "speedup",
                     "obj delta", "pyramid", "admitted"});

  bool valid = true, deterministic = true, covered = true;
  bool pyramid_ok = true, quality_ok = true;
  double speedup_at_10k = 0.0;

  for (const std::size_t hosts : host_sizes) {
    const SizeResult r =
        run_size(hosts, reps, util::derive_seed(env_seed(), 16, hosts));
    valid = valid && r.valid;
    deterministic = deterministic && r.deterministic;
    covered = covered && r.covered;
    if (r.pyramid_used == 0) {
      pyramid_ok = false;
      std::printf("PYRAMID VIOLATION at %zu hosts: every admission fell "
                  "back to the flat mapper\n",
                  hosts);
    }
    if (std::abs(r.median_obj_delta) > 0.05) {
      quality_ok = false;
      std::printf("QUALITY VIOLATION at %zu hosts: median objective delta "
                  "%+.2f%% exceeds 5%%\n",
                  hosts, 100.0 * r.median_obj_delta);
    }
    if (hosts == 10000) speedup_at_10k = r.median_speedup;
    table.add_row(
        {std::to_string(hosts), util::Table::fmt(r.hierarchy_seconds * 1e3, 1),
         util::Table::fmt(r.median_flat_ms, 2),
         util::Table::fmt(r.median_ml_ms, 2),
         util::Table::fmt(r.median_speedup, 1) + "x",
         util::Table::fmt(100.0 * r.median_obj_delta, 2) + "%",
         std::to_string(r.pyramid_used) + "/" + std::to_string(r.ml_ok),
         std::to_string(r.ml_ok) + "/" + std::to_string(r.reps)});
  }

  std::printf("%s", table.to_string().c_str());
  write_file(out_dir() / "multilevel.csv", table.to_csv());

  Gates gates;
  gates.check("validity", valid);
  gates.check("determinism", deterministic);
  gates.check("coverage", covered);
  gates.check("pyramid", pyramid_ok);
  gates.check("quality", quality_ok);
  if (!smoke) {
    const bool speedup_ok = speedup_at_10k >= 5.0;
    std::printf("\n10000-host gate: %.1fx median speedup (need >= 5x) %s\n",
                speedup_at_10k, speedup_ok ? "ok" : "FAILED");
    gates.check("10k 5x gate", speedup_ok);
  }
  std::printf("\nMeasured finding: admission cost follows the refinement "
              "frontier, not the fabric — the coarse solve runs on a "
              "bounded pyramid tip and each expansion touches one rack "
              "neighborhood, so the flat mapper's fabric-wide stage passes "
              "and A*Prune sweeps drop out of the per-admission path.\n");
  return gates.report();
}
