// Mutable residual-capacity bookkeeping over an immutable PhysicalCluster.
//
// Mapping stages place and move guests and reserve bandwidth along paths;
// this object tracks what remains.  Memory and storage are hard constraints
// (Eqs. 2-3); CPU may go negative — it is the optimization variable, not a
// constraint (Section 3.2).  The stages work over the state's host list,
// hosts(): the cluster's hosts, or the hosts of one region of it once
// restrict_hosts() narrows the list (the multilevel refiner's regions).
#pragma once

#include <span>
#include <vector>

#include "core/mapping.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::core {

class ResidualState {
 public:
  explicit ResidualState(const model::PhysicalCluster& cluster);

  /// Rebuilds residuals to reflect an existing (possibly partial) mapping.
  ResidualState(const model::PhysicalCluster& cluster,
                const model::VirtualEnvironment& venv, const Mapping& mapping);

  [[nodiscard]] const model::PhysicalCluster& cluster() const {
    return *cluster_;
  }

  /// The hosts the mapping stages work over, ascending by NodeId: Hosting
  /// picks among them, Migration moves guests between them, and Eq. 10 is
  /// computed over them.  cluster().hosts() unless restrict_hosts()
  /// narrowed the list.
  [[nodiscard]] const std::vector<NodeId>& hosts() const {
    return restricted_ ? own_hosts_ : cluster_->hosts();
  }
  /// Narrows hosts() to `hosts`: ascending host ids of the cluster, no
  /// duplicates.  Residuals stay as they are; the stages then read and
  /// change only those of the listed hosts (and of the links they route
  /// over).  Allocates nothing once the list has held as many hosts.
  void restrict_hosts(std::span<const NodeId> hosts);
  /// Resets the CPU, memory and storage residuals of `hosts` to the
  /// cluster's capacities: what a fresh state holds.
  void restore_hosts(std::span<const NodeId> hosts);
  /// Resets the residual bandwidth of `links` to the cluster's.
  void restore_links(std::span<const EdgeId> links);

  /// Hard-constraint fit check (memory + storage, Eqs. 2-3).  Inline:
  /// random placement calls it once per host per guest per try.
  // hmn-lint: hot-path
  [[nodiscard]] bool fits(const model::GuestRequirements& req,
                          NodeId host) const {
    return mem_[host.index()] >= req.mem_mb &&
           stor_[host.index()] >= req.stor_gb;
  }
  /// Fit check for two guests placed together on one host.
  [[nodiscard]] bool fits_both(const model::GuestRequirements& a,
                               const model::GuestRequirements& b,
                               NodeId host) const;

  /// Deducts the guest's requirements from `host`.  Precondition: fits().
  void place(const model::GuestRequirements& req, NodeId host);
  /// Returns the guest's requirements to `host`.
  void remove(const model::GuestRequirements& req, NodeId host);

  [[nodiscard]] double residual_proc(NodeId n) const {
    return proc_[n.index()];
  }
  [[nodiscard]] double residual_mem(NodeId n) const { return mem_[n.index()]; }
  [[nodiscard]] double residual_stor(NodeId n) const {
    return stor_[n.index()];
  }

  /// Residual CPU of every host, in hosts() order — the vector the
  /// objective function (Eq. 10) is computed over.
  [[nodiscard]] std::vector<double> residual_proc_of_hosts() const;

  [[nodiscard]] double residual_bw(EdgeId e) const { return bw_[e.index()]; }

  /// Reserves `bw` Mbps on every edge of `path` (Eq. 9 accounting).
  /// Residual bandwidth may not go negative; callers check feasibility via
  /// the path-finding algorithms, and this asserts it.
  void reserve_bw(const graph::Path& path, double bw);
  /// Releases a previous reservation.
  void release_bw(const graph::Path& path, double bw);

 private:
  const model::PhysicalCluster* cluster_ = nullptr;
  bool restricted_ = false;       // hosts() is own_hosts_
  std::vector<NodeId> own_hosts_;  // the restricted host list
  std::vector<double> proc_;  // per node
  std::vector<double> mem_;
  std::vector<double> stor_;
  std::vector<double> bw_;  // per edge
};

}  // namespace hmn::core
