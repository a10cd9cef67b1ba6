// The one harness for the table/figure/gate benchmark binaries: argument and
// knob parsing, CSV output, the gate reporter, the workloads several benches
// share, and the churn benches' determinism gate.
//
// Every main starts with parse_args(), which refuses an unknown argument or
// a malformed knob (exit 2) before any work starts.
//
// Environment knobs (all optional):
//   HMN_BENCH_REPS   repetitions per cell       (default 30, the paper's)
//   HMN_BENCH_TRIES  retry budget for R/RA/HS   (default 50; the paper uses
//                    100 000, which only adds time on the structurally
//                    infeasible instances — see EXPERIMENTS.md)
//   HMN_BENCH_SEED   master seed                (default 20090922)
//   HMN_BENCH_OUT    directory for CSV exports  (default "bench_out")
#pragma once

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "baselines/composite_mappers.h"
#include "core/hmn_mapper.h"
#include "expfw/aggregate.h"
#include "expfw/report.h"
#include "expfw/runner.h"
#include "graph/dijkstra.h"
#include "io/trace.h"
#include "orchestrator/orchestrator.h"
#include "topology/topologies.h"
#include "util/csv.h"
#include "util/rng.h"
#include "workload/host_generator.h"
#include "workload/presets.h"

namespace hmn::bench {

// --- knobs and arguments --------------------------------------------------

/// The knob `name` as a decimal integer (nonzero when `positive`), or
/// `fallback` when unset.  Anything else (a sign, hex, trailing text,
/// overflow) exits 2 naming the variable.
inline std::uint64_t env_uint(const char* name, std::uint64_t fallback,
                              bool positive) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string_view text(v);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      (positive && value == 0)) {
    std::fprintf(stderr, "%s=\"%s\": expected a %s decimal integer\n", name,
                 v, positive ? "positive" : "64-bit unsigned");
    std::exit(2);
  }
  return value;
}

inline std::uint64_t env_seed() {
  return env_uint("HMN_BENCH_SEED", 20090922ULL, false);
}
inline std::size_t bench_reps() {
  return env_uint("HMN_BENCH_REPS", 30, true);
}
inline std::size_t bench_tries() {
  return env_uint("HMN_BENCH_TRIES", 50, true);
}

/// The CSV directory, created on first use; one that cannot be created
/// exits 2 naming HMN_BENCH_OUT and the reason.
inline std::filesystem::path out_dir() {
  const char* v = std::getenv("HMN_BENCH_OUT");
  std::filesystem::path dir = v != nullptr ? v : "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr,
                 "HMN_BENCH_OUT=\"%s\": cannot create directory: %s\n",
                 dir.string().c_str(), ec.message().c_str());
    std::exit(2);
  }
  return dir;
}

/// Refuses any argument outside `accepted` with a usage line, and any
/// malformed knob, by exit 2; returns the accepted flags that were given.
inline std::set<std::string_view> parse_args(
    int argc, char** argv,
    std::initializer_list<std::string_view> accepted = {}) {
  std::set<std::string_view> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (std::find(accepted.begin(), accepted.end(), arg) == accepted.end()) {
      std::string usage = std::filesystem::path(argv[0]).filename().string();
      for (const std::string_view flag : accepted) {
        usage.append(" [").append(flag).append("]");
      }
      std::fprintf(stderr, "unknown argument '%s'\nusage: %s\n", argv[i],
                   usage.c_str());
      std::exit(2);
    }
    given.insert(arg);
  }
  (void)env_seed();
  (void)bench_reps();
  (void)bench_tries();
  (void)out_dir();
  return given;
}

// --- output ---------------------------------------------------------------

/// Exits 1 naming `path` and `reason`: a run whose output is lost failed.
[[noreturn]] inline void write_failed(const std::filesystem::path& path,
                                      const char* reason) {
  std::fprintf(stderr, "cannot write %s: %s\n", path.string().c_str(),
               reason);
  std::exit(1);
}

inline void write_file(const std::filesystem::path& path,
                       const std::string& contents) {
  std::ofstream out(path);
  if (!out) write_failed(path, std::strerror(errno));
  out << contents;
  out.close();
  if (!out) write_failed(path, std::strerror(errno));
  std::printf("wrote %s\n", path.string().c_str());
}

/// Reports a CsvWriter's file once its last row is in; a stream that failed
/// is a failed write.
inline void csv_written(const util::CsvWriter& csv,
                        const std::filesystem::path& path) {
  if (!csv.ok()) write_failed(path, std::strerror(errno));
  std::printf("wrote %s\n", path.string().c_str());
}

/// Named gate verdicts, printed as one "checks: <name> ok|FAILED, ..." line.
class Gates {
 public:
  /// Printed "<name> ok" or "<name> FAILED".
  void check(const std::string& name, bool ok) {
    add(name + (ok ? " ok" : " FAILED"), ok);
  }
  /// A violation count, printed "<name> <n>"; it holds at zero.
  void count(const std::string& name, std::size_t n) {
    add(name + " " + std::to_string(n), n == 0);
  }
  /// Prints the checks line; returns the exit code, 0 iff every gate held.
  [[nodiscard]] int report() const {
    std::printf("checks:%s\n", line_.c_str());
    return ok_ ? 0 : 1;
  }

 private:
  void add(const std::string& item, bool ok) {
    line_.append(line_.empty() ? " " : ", ").append(item);
    ok_ = ok_ && ok;
  }

  std::string line_;
  bool ok_ = true;
};

// --- the paper's grid -----------------------------------------------------

/// The paper's four Table 2/3 heuristics, in column order.
struct PaperMappers {
  core::HmnMapper hmn;
  baselines::RandomDfsMapper r;
  baselines::RandomAStarMapper ra;
  baselines::HostingSearchMapper hs;

  explicit PaperMappers(std::size_t tries)
      : r(baselines::BaselineOptions{.max_tries = tries,
                                     .dfs_max_expansions = 20000}),
        ra(baselines::BaselineOptions{.max_tries = tries,
                                      .dfs_max_expansions = 20000}),
        hs(baselines::BaselineOptions{.max_tries = tries,
                                      .dfs_max_expansions = 20000}) {}

  [[nodiscard]] std::vector<const core::Mapper*> all() const {
    return {&hmn, &r, &ra, &hs};
  }
  [[nodiscard]] static std::vector<std::string> names() {
    return {"HMN", "R", "RA", "HS"};
  }
};

/// Grid spec for the paper's full Table 2/3 run.
inline expfw::GridSpec paper_grid(bool simulate_experiment = false) {
  expfw::GridSpec spec;
  spec.scenarios = workload::paper_scenarios();
  spec.clusters = {workload::ClusterKind::kTorus2D,
                   workload::ClusterKind::kSwitched};
  spec.repetitions = bench_reps();
  spec.master_seed = env_seed();
  spec.simulate_experiment = simulate_experiment;
  return spec;
}

// --- shared workloads -----------------------------------------------------

/// An admission pool of the paper's HMN heuristic alone.
inline extensions::HeuristicPool hmn_pool() {
  extensions::HeuristicPool pool;
  pool.add(std::make_unique<core::HmnMapper>());
  return pool;
}

inline double total_host_mem(const model::PhysicalCluster& cluster) {
  double total = 0.0;
  for (const NodeId h : cluster.hosts()) total += cluster.capacity(h).mem_mb;
  return total;
}

/// The online benches' tenant churn: 4-10 host-scale guests (0.5-1.5 GB,
/// E11's sizing) at density 0.2, Pareto lifetimes, arriving at the rate
/// whose steady-state memory demand is `load` times the cluster's memory
/// (Little's law: rate * mean_lifetime * mean tenant memory).  Growth,
/// replica and tier fields keep their defaults for the caller to set.
inline workload::ChurnOptions host_scale_churn(
    double load, double horizon, double mean_lifetime,
    const model::PhysicalCluster& cluster) {
  workload::ChurnOptions opts;
  opts.horizon = horizon;
  opts.mean_lifetime = mean_lifetime;
  opts.lifetime = workload::LifetimeDistribution::kPareto;
  opts.min_guests = 4;
  opts.max_guests = 10;
  opts.density = 0.2;
  opts.profile = workload::high_level_profile();
  opts.profile.mem_mb = {512.0, 1536.0};

  const double mean_guests =
      0.5 * static_cast<double>(opts.min_guests + opts.max_guests);
  const double mean_tenant_mem =
      mean_guests * 0.5 * (opts.profile.mem_mb.lo + opts.profile.mem_mb.hi);
  opts.arrival_rate = load * total_host_mem(cluster) /
                      (opts.mean_lifetime * mean_tenant_mem);
  return opts;
}

/// E12's churn, which E18's journal-overhead gate reuses: host-scale churn
/// with short Pareto lifetimes, where a fifth of the tenants grow mid-life.
inline workload::ChurnOptions e12_churn(double load, double horizon,
                                        const model::PhysicalCluster& cluster) {
  workload::ChurnOptions opts = host_scale_churn(load, horizon, 12.0, cluster);
  opts.grow_probability = 0.2;
  opts.max_grow_guests = 3;
  return opts;
}

/// The paper's 40 Table-1 hosts racked under four leaf switches
/// (switch_tree(40, 10, 4)).  On the paper's single-switch cluster a blast
/// is a total outage; here it has quarter-fabric radius, the regime where
/// steering placements between racks matters (E15, E17).
inline model::PhysicalCluster racked_cluster(std::uint64_t seed) {
  util::Rng rng(seed);
  auto caps =
      workload::generate_hosts(40, workload::paper_host_profile(), rng);
  return model::PhysicalCluster::build(topology::switch_tree(40, 10, 4),
                                       std::move(caps),
                                       workload::paper_link_props());
}

/// Hop diameter of a tree fabric by double sweep (exact on trees): the
/// eccentricity of the farthest node from node 0.
inline double tree_hop_diameter(const graph::Graph& g) {
  auto unit = [](EdgeId) { return 1.0; };
  auto farthest = [&](NodeId from) {
    const auto sp = graph::dijkstra(g, from, unit);
    std::size_t best = 0;
    for (std::size_t v = 1; v < g.node_count(); ++v) {
      if (sp.dist[v] > sp.dist[best]) best = v;
    }
    return std::pair{NodeId{static_cast<NodeId::underlying_type>(best)},
                     sp.dist[best]};
  };
  const auto [turn, _] = farthest(NodeId{0});
  return std::max(1.0, farthest(turn).second);
}

/// A switch_tree(hosts, 8, 4) fabric of Table-1 hosts (E14, E16).  Per-hop
/// latency scales down with the tree diameter so the workload's 30-60 ms
/// latency envelope stays satisfiable at every size, as in E10.
inline model::PhysicalCluster scaled_switch_tree(std::size_t hosts,
                                                 std::uint64_t seed) {
  auto topo = topology::switch_tree(hosts, 8, 4);
  model::LinkProps link = workload::paper_link_props();
  link.latency_ms = std::min(5.0, 30.0 / tree_hop_diameter(topo.graph));
  util::Rng rng(seed);
  auto caps =
      workload::generate_hosts(hosts, workload::paper_host_profile(), rng);
  return model::PhysicalCluster::build(std::move(topo), std::move(caps),
                                       link);
}

// --- the churn benches' determinism gate ----------------------------------

/// A fresh re-run of `trace` and a record/replay of it through the binary
/// trace format must both reproduce the live run's decision signature.
/// Prints one line and adds the "rerun" and "replay" gates.
inline void determinism_gate(Gates& gates,
                             const model::PhysicalCluster& cluster,
                             const workload::ChurnTrace& trace,
                             extensions::HeuristicPool (*make_pool)(),
                             const orchestrator::OrchestratorOptions& opts) {
  orchestrator::Orchestrator live(cluster, trace.profile, make_pool(), opts);
  const std::string sig = live.run(trace).decision_signature();

  orchestrator::Orchestrator again(cluster, trace.profile, make_pool(), opts);
  const bool rerun_ok = again.run(trace).decision_signature() == sig;

  const auto reloaded = io::read_trace_or_throw(io::write_trace(trace));
  orchestrator::Orchestrator replayed(cluster, reloaded.profile, make_pool(),
                                      opts);
  const bool replay_ok = replayed.run(reloaded).decision_signature() == sig;

  std::printf("\ndeterminism: fresh re-run %s, trace record/replay %s "
              "(%zu decisions)\n",
              rerun_ok ? "identical" : "DIVERGED",
              replay_ok ? "identical" : "DIVERGED",
              live.report().decisions.size());
  gates.check("rerun", rerun_ok);
  gates.check("replay", replay_ok);
}

}  // namespace hmn::bench
