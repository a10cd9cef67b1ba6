// Sharded placement router: flat admission latency on a growing fabric.
//
// bench E10 shows the mapper's Networking stage growing superlinearly with
// fabric size — a single TenancyManager spends seconds per admission at
// hundreds of hosts.  The PlacementRouter keeps admission latency flat by
// partitioning the fabric (topology::partition_cluster) and owning one
// TenancyManager per shard; every tenant is confined to a single shard (the
// "subtree confinement" heuristic of the VNE literature, see PAPERS.md), so
// per-admission work scales with the shard, not the fabric, and independent
// arrivals land on disjoint shards concurrently.
//
// Shard selection is power-of-two-choices on residual-CPU headroom: each
// request probes `probe_choices` shards drawn from its own derived seed,
// admits into the probe with the most headroom (deterministic tie-break on
// shard index), and on rejection falls back through the remaining shards in
// score order.  P2C keeps shards balanced without a global scan per
// request while staying fully deterministic.
//
// Determinism under parallelism: admit_batch resolves each request's full
// shard try-order up front from a headroom snapshot taken at batch start,
// then executes in rounds — round r sends every still-pending request to
// its r-th choice, grouped per shard, and each shard processes its group in
// ascending request order under its own lock.  Shard managers share no
// state, so the decision log and `placement_hash` sequence are byte-
// identical for threads=1 and threads=N; only wall-clock latencies differ.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/map_result.h"
#include "emulator/tenancy.h"
#include "extensions/heuristic_pool.h"
#include "model/physical_cluster.h"
#include "multilevel/multilevel_mapper.h"
#include "topology/partition.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hmn::orchestrator {

/// Builds the admission pool for one shard (each TenancyManager needs its
/// own Mapper instances).  Defaults to extensions::default_pool.
using PoolFactory = std::function<extensions::HeuristicPool()>;

struct RouterOptions {
  /// Upper bound on the shard count (clamped to the fabric's rack units;
  /// see topology::partition_cluster).  1 degenerates to flat admission
  /// through the identical code path — the E14 baseline.
  std::size_t shards = 4;
  /// Threads that admit_batch runs shards on, the caller included: the
  /// caller admits each round's first busy shard and a pool of
  /// threads - 1 workers takes the others.  <= 1 runs serially.  Decisions
  /// are identical either way.
  std::size_t threads = 1;
  /// Shards probed per request before falling back (power-of-two-choices).
  std::size_t probe_choices = 2;
  /// Try every remaining shard in score order after the probes fail; when
  /// false a request is rejected once its probes reject it.
  bool exhaustive_fallback = true;
  /// Shards with at least this many hosts get their admission pool fronted
  /// by the multilevel coarsen–map–refine mapper (src/multilevel), with a
  /// structural hierarchy prebuilt per shard; the regular pool remains as
  /// the fallback chain.  0 disables multilevel delegation.
  std::size_t multilevel_min_hosts = 0;
  /// Tuning for the delegated multilevel mapper (its min_hosts is
  /// overridden by multilevel_min_hosts above).
  multilevel::MultilevelOptions multilevel;
  /// Wrap every mapper in each shard's pool with the anti-affinity
  /// replica-spread pass (extensions::replica_aware).  The wrapper is
  /// byte-invisible for tenants without replica groups and clusters
  /// without failure-domain annotation, so enabling it on a legacy
  /// workload replays identically; it is off by default so mapper names
  /// in shard stats stay unchanged for existing consumers.
  bool replica_spread = false;
};

/// One independent arrival handed to admit_batch.
struct AdmissionRequest {
  std::uint32_t key = 0;  // caller's tenant key, unique among live tenants
  model::VirtualEnvironment venv;
  std::uint64_t seed = 0;  // admission seed; per-shard seeds derive from it
};

/// One routing decision, in request order.  Everything except `latency_us`
/// is replay-stable (identical for threads=1 vs threads=N).
struct RouterDecision {
  std::uint32_t key = 0;
  bool admitted = false;
  std::int32_t shard = -1;      // winning shard; -1 when rejected
  std::uint32_t attempts = 0;   // shards tried (>= 1)
  core::MapErrorCode error = core::MapErrorCode::kNone;  // last rejection
  /// FNV-1a over the guest placement in *parent-fabric* host ids, so hashes
  /// are comparable across shard counts (and to the flat baseline).
  std::uint64_t placement_hash = 0;
  double latency_us = 0.0;  // wall clock inside the owning shard's lock
};

class PlacementRouter {
 public:
  PlacementRouter(const model::PhysicalCluster& fabric, RouterOptions opts);
  PlacementRouter(const model::PhysicalCluster& fabric, RouterOptions opts,
                  const PoolFactory& make_pool);
  ~PlacementRouter();  // out of line: ShardState is incomplete here

  PlacementRouter(const PlacementRouter&) = delete;
  PlacementRouter& operator=(const PlacementRouter&) = delete;

  /// Admits a batch of independent arrivals; returns one decision per
  /// request, in request order.  `batch_seed` drives shard probing (derive
  /// a fresh one per batch).  Decisions are appended to the router log.
  std::vector<RouterDecision> admit_batch(
      const std::vector<AdmissionRequest>& batch, std::uint64_t batch_seed);

  /// Single-request convenience wrapper over admit_batch.
  RouterDecision admit(AdmissionRequest request, std::uint64_t batch_seed);

  /// Releases the tenant admitted under `key`; false if unknown.
  bool release(std::uint32_t key);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const emulator::TenancyManager& shard_manager(
      std::size_t s) const;
  [[nodiscard]] const topology::ClusterShard& shard(std::size_t s) const;
  /// Live tenants across all shards.
  [[nodiscard]] std::size_t tenant_count() const;
  /// Current residual-CPU headroom of a shard (the P2C score).
  [[nodiscard]] double headroom(std::size_t s) const;

  [[nodiscard]] const std::vector<RouterDecision>& decision_log() const {
    return log_;
  }
  /// Canonical string over (key, admitted, shard, attempts, error,
  /// placement_hash) of every logged decision; latencies excluded.  Two
  /// runs routed identically iff their signatures match.
  [[nodiscard]] std::string decision_signature() const;
  /// Admission latencies across all logged decisions, in 4096 buckets up
  /// to 2e5 us.
  [[nodiscard]] const util::LatencyHistogram& latency_histogram() const {
    return latency_;
  }

 private:
  struct ShardState;

  /// Full shard try-order for one request from the batch-start headroom
  /// snapshot: P2C winner, remaining probes, then the rest by score.
  [[nodiscard]] std::vector<std::size_t> try_order(
      const std::vector<double>& headroom_snapshot, std::uint64_t seed) const;
  void refresh_headroom(std::size_t s);

  RouterOptions opts_;
  topology::ClusterPartition partition_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<util::ThreadPool> pool_;  // threads - 1 workers; null
                                            // when threads <= 1

  struct Placement {
    std::size_t shard = 0;
    emulator::TenantId tenant{};
  };
  std::map<std::uint32_t, Placement> placements_;
  std::vector<RouterDecision> log_;
  util::LatencyHistogram latency_;
};

}  // namespace hmn::orchestrator
