#include "core/residual.h"

#include <algorithm>
#include <cassert>

namespace hmn::core {

ResidualState::ResidualState(const model::PhysicalCluster& cluster)
    : cluster_(&cluster) {
  const std::size_t n = cluster.node_count();
  proc_.resize(n);
  mem_.resize(n);
  stor_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cap = cluster.capacity(NodeId{static_cast<NodeId::underlying_type>(i)});
    proc_[i] = cap.proc_mips;
    mem_[i] = cap.mem_mb;
    stor_[i] = cap.stor_gb;
  }
  bw_.resize(cluster.link_count());
  for (std::size_t e = 0; e < bw_.size(); ++e) {
    bw_[e] = cluster.link(EdgeId{static_cast<EdgeId::underlying_type>(e)}).bandwidth_mbps;
  }
}

ResidualState::ResidualState(const model::PhysicalCluster& cluster,
                             const model::VirtualEnvironment& venv,
                             const Mapping& mapping)
    : ResidualState(cluster) {
  for (std::size_t g = 0; g < mapping.guest_host.size(); ++g) {
    const NodeId h = mapping.guest_host[g];
    if (h.valid()) {
      place(venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)}), h);
    }
  }
  for (std::size_t l = 0; l < mapping.link_paths.size(); ++l) {
    const auto id = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
    reserve_bw(mapping.link_paths[l], venv.link(id).bandwidth_mbps);
  }
}

// The fits/place/remove/bw family runs once per candidate host per guest —
// the innermost loop of Hosting and Migration.  None of them may allocate.
// hmn-lint: hot-path
bool ResidualState::fits_both(const model::GuestRequirements& a,
                              const model::GuestRequirements& b,
                              NodeId host) const {
  return mem_[host.index()] >= a.mem_mb + b.mem_mb &&
         stor_[host.index()] >= a.stor_gb + b.stor_gb;
}

// hmn-lint: hot-path
void ResidualState::place(const model::GuestRequirements& req, NodeId host) {
  assert(cluster_->is_host(host));
  proc_[host.index()] -= req.proc_mips;  // may go negative: CPU is the
                                         // optimization variable
  mem_[host.index()] -= req.mem_mb;
  stor_[host.index()] -= req.stor_gb;
  assert(mem_[host.index()] >= -1e-9 && stor_[host.index()] >= -1e-9 &&
         "place() called without a fits() check");
}

// hmn-lint: hot-path
void ResidualState::remove(const model::GuestRequirements& req, NodeId host) {
  proc_[host.index()] += req.proc_mips;
  mem_[host.index()] += req.mem_mb;
  stor_[host.index()] += req.stor_gb;
}

// The multilevel refiner calls these before every group try and after
// every failed re-route.
// hmn-lint: hot-path
void ResidualState::restrict_hosts(std::span<const NodeId> hosts) {
  assert(std::is_sorted(hosts.begin(), hosts.end()));
  own_hosts_.assign(hosts.begin(), hosts.end());
  restricted_ = true;
}

// hmn-lint: hot-path
void ResidualState::restore_hosts(std::span<const NodeId> hosts) {
  for (const NodeId h : hosts) {
    const model::HostCapacity& cap = cluster_->capacity(h);
    proc_[h.index()] = cap.proc_mips;
    mem_[h.index()] = cap.mem_mb;
    stor_[h.index()] = cap.stor_gb;
  }
}

// hmn-lint: hot-path
void ResidualState::restore_links(std::span<const EdgeId> links) {
  for (const EdgeId e : links) {
    bw_[e.index()] = cluster_->link(e).bandwidth_mbps;
  }
}

std::vector<double> ResidualState::residual_proc_of_hosts() const {
  const auto& hosts = this->hosts();
  std::vector<double> out;
  out.reserve(hosts.size());
  for (const NodeId h : hosts) out.push_back(proc_[h.index()]);
  return out;
}

// hmn-lint: hot-path
void ResidualState::reserve_bw(const graph::Path& path, double bw) {
  for (const EdgeId e : path) {
    bw_[e.index()] -= bw;
    assert(bw_[e.index()] >= -1e-6 && "bandwidth overcommitted");
  }
}

// hmn-lint: hot-path
void ResidualState::release_bw(const graph::Path& path, double bw) {
  for (const EdgeId e : path) bw_[e.index()] += bw;
}

}  // namespace hmn::core
