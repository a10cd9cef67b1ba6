#include "baselines/composite_mappers.h"

#include "baselines/random_host_mapper.h"
#include "core/hosting.h"
#include "core/networking.h"
#include "core/residual.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hmn::baselines {
namespace {

using core::MapErrorCode;
using core::MapOutcome;
using core::Mapping;
using core::NetworkingOptions;
using core::PathAlgorithm;
using core::ResidualState;

NetworkingOptions dfs_networking(std::uint64_t seed,
                                 const BaselineOptions& opts) {
  NetworkingOptions n;
  n.algorithm = PathAlgorithm::kDfsNaive;
  n.randomize_dfs = true;
  n.shuffle_seed = seed;
  n.dfs_max_expansions = opts.dfs_max_expansions;
  return n;
}

MapOutcome success(std::vector<NodeId> placement,
                   core::NetworkingResult routed, std::size_t tries) {
  MapOutcome outcome;
  Mapping mapping;
  mapping.guest_host = std::move(placement);
  mapping.link_paths = std::move(routed.link_paths);
  outcome.mapping = std::move(mapping);
  outcome.stats.links_routed = routed.links_routed;
  outcome.stats.tries = tries;
  return outcome;
}

/// Shared retry loop for R and RA: random placement + path mapping, both
/// retried together.  An instance the Eqs. 2-3 certificate rules out fails
/// before the first try: no random placement of it could succeed.
MapOutcome random_then_route(const model::PhysicalCluster& cluster,
                             const model::VirtualEnvironment& venv,
                             std::uint64_t seed, const BaselineOptions& opts,
                             PathAlgorithm algorithm) {
  const util::Timer total;
  // Placement time is the remainder of the routing time, so the loop reads
  // the clock only around the run_networking calls.
  auto finish = [&](MapOutcome out, double networking_seconds) {
    out.stats.total_seconds = total.elapsed_seconds();
    out.stats.networking_seconds = networking_seconds;
    out.stats.hosting_seconds = out.stats.total_seconds - networking_seconds;
    return out;
  };
  if (auto cert = core::certify_infeasible(cluster, venv)) {
    return finish(MapOutcome::failure(MapErrorCode::kTriesExhausted,
                                      std::move(cert->detail)),
                  0.0);
  }

  util::Rng rng(seed);
  // Every try starts from the pristine state by assignment, which reuses
  // the buffers, and routes through one router, which keeps its ar[]
  // tables and A*Prune scratch across tries.
  const ResidualState pristine(cluster);
  ResidualState state = pristine;
  core::LinkRouter router(state);
  double networking_seconds = 0.0;
  for (std::size_t attempt = 0; attempt < opts.max_tries; ++attempt) {
    state = pristine;
    auto placement = random_placement(venv, state, rng);
    if (!placement.has_value()) continue;

    NetworkingOptions n;
    if (algorithm == PathAlgorithm::kDfsNaive) {
      n = dfs_networking(util::derive_seed(seed, attempt), opts);
    } else {
      n.algorithm = PathAlgorithm::kAStarPrune;
    }
    const util::Timer routing;
    core::NetworkingResult routed =
        core::run_networking(venv, state, *placement, n, &router);
    networking_seconds += routing.elapsed_seconds();
    if (routed.ok) {
      return finish(success(std::move(*placement), std::move(routed),
                            attempt + 1),
                    networking_seconds);
    }
  }
  MapOutcome out = MapOutcome::failure(
      MapErrorCode::kTriesExhausted,
      "no valid mapping after " + std::to_string(opts.max_tries) + " tries");
  out.stats.tries = opts.max_tries;
  return finish(std::move(out), networking_seconds);
}

}  // namespace

MapOutcome RandomDfsMapper::map(const model::PhysicalCluster& cluster,
                                const model::VirtualEnvironment& venv,
                                std::uint64_t seed) const {
  return random_then_route(cluster, venv, seed, opts_, PathAlgorithm::kDfsNaive);
}

MapOutcome RandomAStarMapper::map(const model::PhysicalCluster& cluster,
                                  const model::VirtualEnvironment& venv,
                                  std::uint64_t seed) const {
  return random_then_route(cluster, venv, seed, opts_,
                           PathAlgorithm::kAStarPrune);
}

MapOutcome HostingSearchMapper::map(const model::PhysicalCluster& cluster,
                                    const model::VirtualEnvironment& venv,
                                    std::uint64_t seed) const {
  const util::Timer total;
  if (cluster.host_count() == 0) {
    return MapOutcome::failure(MapErrorCode::kInvalidInput,
                               "cluster has no hosts");
  }

  // Hosting runs once; only the path mapping is retried (Section 5.2).
  util::Timer stage;
  ResidualState hosted_state(cluster);
  core::HostingResult hosted = core::run_hosting(venv, hosted_state);
  const double hosting_seconds = stage.elapsed_seconds();
  if (!hosted.ok) {
    MapOutcome out =
        MapOutcome::failure(MapErrorCode::kHostingFailed, hosted.detail);
    out.stats.hosting_seconds = hosting_seconds;
    out.stats.total_seconds = total.elapsed_seconds();
    return out;
  }

  double networking_seconds = 0.0;
  auto finish = [&](MapOutcome out) {
    out.stats.hosting_seconds = hosting_seconds;
    out.stats.networking_seconds = networking_seconds;
    out.stats.total_seconds = total.elapsed_seconds();
    return out;
  };
  for (std::size_t attempt = 0; attempt < opts_.max_tries; ++attempt) {
    // Bandwidth reservations must restart fresh each attempt, but guest
    // placements persist: rebuild the residual state from the placement.
    ResidualState state(cluster, venv, Mapping{hosted.guest_host, {}});
    stage.restart();
    core::NetworkingResult routed = core::run_networking(
        venv, state, hosted.guest_host,
        dfs_networking(util::derive_seed(seed, attempt), opts_));
    networking_seconds += stage.elapsed_seconds();
    if (routed.ok) {
      return finish(
          success(hosted.guest_host, std::move(routed), attempt + 1));
    }
  }
  MapOutcome out = MapOutcome::failure(
      MapErrorCode::kTriesExhausted,
      "no valid link mapping after " + std::to_string(opts_.max_tries) +
          " tries");
  out.stats.tries = opts_.max_tries;
  return finish(std::move(out));
}

}  // namespace hmn::baselines
