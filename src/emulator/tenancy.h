// Multi-tenant testbed management.
//
// The paper simplifies: "we consider that the entire cluster is available
// for a single tester per time" (Section 3.2).  A production testbed
// serves several testers at once; the TenancyManager relaxes the
// assumption by admitting each tenant's virtual environment against the
// *residual* capacity left by the tenants already running:
//
//   * admit(): builds a residual view of the cluster (same topology, host
//     capacities and link bandwidths minus existing reservations) and runs
//     the heuristic pool (HMN, RA fallback) on it; on success the tenant's
//     demands are committed;
//   * release(): returns a departed tenant's memory, storage, CPU, and
//     bandwidth; no other tenant is disturbed (their placements were
//     computed against capacities that only grew).
//
// Admission is deliberately conservative: a tenant that cannot be mapped
// within the current residual is rejected rather than triggering
// migrations of running tenants.  The orchestrator layer
// (src/orchestrator) composes the two mutating extensions below — grow()
// and update_mappings() — into churn-driven growth and background
// defragmentation on top of that conservative core.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/map_result.h"
#include "core/networking.h"
#include "core/repair.h"
#include "extensions/heuristic_pool.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::emulator {

using TenantId = std::uint32_t;

struct Tenant {
  TenantId id = 0;
  std::string name;
  model::VirtualEnvironment venv;
  core::Mapping mapping;
};

/// Cluster-wide utilization snapshot across all tenants.
struct TenancyUtilization {
  double mem_fraction = 0.0;      // reserved / total host memory
  double stor_fraction = 0.0;
  double proc_fraction = 0.0;     // may exceed 1: CPU is not a constraint
  double peak_link_fraction = 0.0;  // most-loaded physical link
  std::size_t tenants = 0;
  std::size_t guests = 0;
};

class TenancyManager {
 public:
  /// Admission uses the default pool (HMN, RA fallback) unless a custom
  /// pool is supplied — e.g. a MinHosts-first pool, which consolidates
  /// each tenant and leaves contiguous capacity for later arrivals (bench
  /// E11 quantifies the admission-rate difference).
  explicit TenancyManager(model::PhysicalCluster cluster);
  TenancyManager(model::PhysicalCluster cluster,
                 extensions::HeuristicPool pool);

  /// Admits a tenant; on success returns its id, on failure the mapper's
  /// outcome explains why (kHostingFailed / kNetworkingFailed /
  /// kTriesExhausted).
  struct AdmissionResult {
    std::optional<TenantId> tenant;
    core::MapErrorCode error = core::MapErrorCode::kNone;
    std::string detail;

    [[nodiscard]] bool ok() const { return tenant.has_value(); }
  };
  /// `reserve_headroom` selects the *admission* view: new tenants map
  /// against capacities shrunk by the configured spare-capacity headroom
  /// and biased by per-host availability weights (below), so healing has
  /// somewhere to land.  Healer re-admissions pass false — a refugee
  /// re-placement may use every surviving byte.
  AdmissionResult admit(std::string name, model::VirtualEnvironment venv,
                        std::uint64_t seed, bool reserve_headroom = true);

  /// Releases a tenant's resources.  False if the id is unknown.
  bool release(TenantId id);

  /// Grows a running tenant to `grown` (its current venv plus appended
  /// guests/links; existing ids unchanged).  Tries core::extend_mapping
  /// first — existing guests keep their hosts — and, when the increment
  /// does not fit the residual, falls back to a full remap of the grown
  /// environment through the admission pool (the tenant's guests may all
  /// move, but no *other* tenant is disturbed).  On failure the tenant is
  /// left exactly as it was.
  struct GrowthResult {
    bool ok = false;
    bool used_full_remap = false;
    core::MapErrorCode error = core::MapErrorCode::kNone;
    std::string detail;
  };
  GrowthResult grow(TenantId id, model::VirtualEnvironment grown,
                    std::uint64_t seed);

  /// Atomically replaces the mappings of the listed tenants (the commit
  /// step of a defragmentation pass).  Every new mapping must cover its
  /// tenant's current venv; the aggregate reservation after the swap must
  /// respect every host's memory/storage and every link's bandwidth.  On
  /// any violation nothing changes and false is returned.  Takes ownership
  /// of the updates: each new mapping is moved in, not copied.
  bool update_mappings(std::vector<std::pair<TenantId, core::Mapping>> updates);

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  /// Ids of all running tenants in ascending order.
  [[nodiscard]] std::vector<TenantId> tenant_ids() const;
  /// nullptr when unknown.
  [[nodiscard]] const Tenant* tenant(TenantId id) const;
  [[nodiscard]] const model::PhysicalCluster& cluster() const {
    return cluster_;
  }

  /// Algorithm 1's ar[] tables for cluster() with no element masked: what
  /// a router over a ResidualState built on cluster() may borrow.  They
  /// depend only on link latencies, which never change — failures change
  /// the masks, not the cluster — so one set serves every defrag pass.  A
  /// cache, not logical state: checkpoints do not carry it.
  [[nodiscard]] core::LatencyTables& latency_tables() {
    return latency_tables_;
  }

  /// The cluster as the *next* tenant would see it: host capacities and
  /// link bandwidths minus all current reservations.  Failed elements
  /// (below) appear with zero capacity / zero bandwidth, so admission,
  /// growth, and defragmentation naturally avoid them.
  [[nodiscard]] model::PhysicalCluster residual_cluster() const;

  /// Like residual_cluster() but with tenant `id`'s own reservations
  /// returned — the view a repair of that tenant maps against.
  [[nodiscard]] model::PhysicalCluster residual_cluster_excluding(
      TenantId id) const;

  /// Failure masking: a down node loses its capacity and every incident
  /// link in all residual views; a down link loses its bandwidth.  The
  /// orchestrator's healer drives these from HOST_FAIL/LINK_FAIL events.
  /// Marking an element down does NOT touch committed mappings — healing
  /// them is the caller's job (update_mappings rejects any new mapping
  /// that lands on a down element).
  void set_node_down(NodeId node, bool down);
  void set_link_down(EdgeId edge, bool down);
  [[nodiscard]] bool is_node_down(NodeId node) const {
    return node_down_[node.index()];
  }
  [[nodiscard]] bool is_link_down(EdgeId edge) const {
    return edge_down_[edge.index()];
  }
  [[nodiscard]] bool has_failed_elements() const { return down_count_ > 0; }
  /// The current failure set in repair_mapping's shape (ascending ids).
  [[nodiscard]] core::FailureSet failed_elements() const;

  /// Availability-aware admission bias (ROADMAP: repair-aware admission).
  /// `weights` holds one multiplier in (0, 1] per cluster *node* (indexed
  /// by node id; empty disables the bias).  The admission view scales each
  /// host's residual CPU by its weight, steering Hosting's
  /// most-available-CPU ordering away from historically flaky hosts
  /// without ever making a feasible placement infeasible (CPU is not a
  /// hard constraint).  All-1.0 weights reproduce the unbiased view
  /// byte-for-byte.
  void set_host_weights(std::vector<double> weights);

  /// Fraction of every host's memory/storage withheld from *new-tenant*
  /// admissions (0 disables).  Growth, healing, and defragmentation see
  /// the full capacity — the reserve exists precisely so repairs have
  /// spare room.
  void set_admission_headroom(double fraction);
  [[nodiscard]] double admission_headroom() const {
    return admission_headroom_;
  }

  /// Unclamped residual CPU per host in cluster().hosts() order — the
  /// vector the cluster-wide load-balance factor (Eq. 10) is computed
  /// over.  May contain negative entries: CPU is not a hard constraint.
  [[nodiscard]] std::vector<double> residual_host_proc() const;
  /// The sum of residual_host_proc(), added up in the same order, without
  /// building the vector.
  [[nodiscard]] double residual_host_proc_sum() const;

  [[nodiscard]] TenancyUtilization utilization() const;

  /// Checkpoint support (src/recovery): the manager's complete logical
  /// state as plain values.  The aggregate `used_*` reservations are
  /// carried *verbatim*: they are derivable from the mappings, but only up
  /// to floating-point rounding — the live arrays hold the residue of the
  /// whole add/remove history, while a fresh rebuild sums surviving
  /// tenants in id order, and the last-ulp difference is enough to flip a
  /// near-tie placement after restore.  restore_state() still rebuilds
  /// them from the mappings and refuses a state whose exported aggregates
  /// disagree beyond rounding noise, so a checkpoint cannot smuggle in
  /// bookkeeping the committed mappings don't back.
  struct State {
    std::vector<Tenant> tenants;  // ascending id order
    TenantId next_id = 1;
    std::vector<bool> node_down;
    std::vector<bool> edge_down;
    std::vector<double> host_weights;
    double admission_headroom = 0.0;
    // Exact aggregates at export time (empty: derive from the mappings).
    std::vector<double> used_proc;
    std::vector<double> used_mem;
    std::vector<double> used_stor;
    std::vector<double> used_bw;
  };
  [[nodiscard]] State export_state() const;
  /// Restores into a manager constructed over the same cluster and pool.
  /// Any previous tenants are discarded.  Throws std::invalid_argument,
  /// before changing anything, if a mapping names a node that is not a
  /// host of this cluster or a link it lacks, or if a failure mask's
  /// length differs from the cluster's node or link count; and if the
  /// state's `used_*` aggregates are present but inconsistent with what
  /// its tenant mappings reserve.
  void restore_state(State state);

 private:
  model::PhysicalCluster cluster_;
  extensions::HeuristicPool pool_;
  std::map<TenantId, Tenant> tenants_;
  TenantId next_id_ = 1;
  core::LatencyTables latency_tables_;  // of the unmasked cluster_

  // Aggregate reservations across tenants, per cluster node / edge.
  std::vector<double> used_proc_;
  std::vector<double> used_mem_;
  std::vector<double> used_stor_;
  std::vector<double> used_bw_;

  // Failure masks, per cluster node / edge.
  std::vector<bool> node_down_;
  std::vector<bool> edge_down_;
  std::size_t down_count_ = 0;

  // Availability-aware admission bias (empty / 0.0 when disabled).
  std::vector<double> host_weights_;
  double admission_headroom_ = 0.0;

  /// Down directly, or incident to a down node.
  [[nodiscard]] bool edge_masked(EdgeId e) const;

  void apply(const Tenant& tenant, double sign);
  void apply_mapping(const model::VirtualEnvironment& venv,
                     const core::Mapping& mapping, double sign);
  /// Residual view built from the current `used_*` arrays, minus failure
  /// masks; with `exclude` non-null that tenant's reservations are handed
  /// back (shared by residual_cluster() and the exclude-one views).  With
  /// `biased` the availability weights and admission headroom are applied
  /// — the view a *new* tenant maps against.  The view shares cluster_'s
  /// fabric (PhysicalCluster::with_resources).
  [[nodiscard]] model::PhysicalCluster residual_view(
      const Tenant* exclude = nullptr, bool biased = false) const;
};

}  // namespace hmn::emulator
