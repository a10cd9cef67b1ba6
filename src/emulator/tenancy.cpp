#include "emulator/tenancy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/incremental.h"

namespace hmn::emulator {

TenancyManager::TenancyManager(model::PhysicalCluster cluster)
    : TenancyManager(std::move(cluster), extensions::default_pool()) {}

TenancyManager::TenancyManager(model::PhysicalCluster cluster,
                               extensions::HeuristicPool pool)
    : cluster_(std::move(cluster)), pool_(std::move(pool)) {
  used_proc_.assign(cluster_.node_count(), 0.0);
  used_mem_.assign(cluster_.node_count(), 0.0);
  used_stor_.assign(cluster_.node_count(), 0.0);
  used_bw_.assign(cluster_.link_count(), 0.0);
  node_down_.assign(cluster_.node_count(), false);
  edge_down_.assign(cluster_.link_count(), false);
}

void TenancyManager::apply(const Tenant& tenant, double sign) {
  apply_mapping(tenant.venv, tenant.mapping, sign);
}

void TenancyManager::apply_mapping(const model::VirtualEnvironment& venv,
                                   const core::Mapping& mapping, double sign) {
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    const auto& req =
        venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
    const std::size_t h = mapping.guest_host[g].index();
    used_proc_[h] += sign * req.proc_mips;
    used_mem_[h] += sign * req.mem_mb;
    used_stor_[h] += sign * req.stor_gb;
  }
  for (std::size_t l = 0; l < venv.link_count(); ++l) {
    const double bw =
        venv.link(VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)})
            .bandwidth_mbps;
    for (const EdgeId e : mapping.link_paths[l]) {
      used_bw_[e.index()] += sign * bw;
    }
  }
}

model::PhysicalCluster TenancyManager::residual_cluster() const {
  return residual_view();
}

model::PhysicalCluster TenancyManager::residual_cluster_excluding(
    TenantId id) const {
  const auto it = tenants_.find(id);
  return residual_view(it == tenants_.end() ? nullptr : &it->second);
}

bool TenancyManager::edge_masked(EdgeId e) const {
  if (edge_down_[e.index()]) return true;
  const auto ep = cluster_.graph().endpoints(e);
  return node_down_[ep.a.index()] || node_down_[ep.b.index()];
}

// Every admission, heal, and defrag pass starts by materializing a residual
// view.  The view shares cluster_'s fabric: it costs the two resource
// vectors, both size-known, and no graph.
// hmn-lint: hot-path
model::PhysicalCluster TenancyManager::residual_view(const Tenant* exclude,
                                                     bool biased) const {
  // With no tenant excluded the aggregates are read in place; otherwise the
  // excluded tenant's reservations are handed back into local copies (this
  // is a const view).
  std::vector<double> own_proc;
  std::vector<double> own_mem;
  std::vector<double> own_stor;
  std::vector<double> own_bw;
  const std::vector<double>* proc = &used_proc_;
  const std::vector<double>* mem = &used_mem_;
  const std::vector<double>* stor = &used_stor_;
  const std::vector<double>* bw = &used_bw_;
  if (exclude != nullptr) {
    own_proc = used_proc_;
    own_mem = used_mem_;
    own_stor = used_stor_;
    own_bw = used_bw_;
    const auto& venv = exclude->venv;
    for (std::size_t g = 0; g < venv.guest_count(); ++g) {
      const auto& req =
          venv.guest(GuestId{static_cast<GuestId::underlying_type>(g)});
      const std::size_t h = exclude->mapping.guest_host[g].index();
      own_proc[h] -= req.proc_mips;
      own_mem[h] -= req.mem_mb;
      own_stor[h] -= req.stor_gb;
    }
    for (std::size_t l = 0; l < venv.link_count(); ++l) {
      const double demand =
          venv.link(VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)})
              .bandwidth_mbps;
      for (const EdgeId e : exclude->mapping.link_paths[l]) {
        own_bw[e.index()] -= demand;
      }
    }
    proc = &own_proc;
    mem = &own_mem;
    stor = &own_stor;
    bw = &own_bw;
  }

  // Switches and dead hosts keep the zero capacity they start with.
  const bool any_down = down_count_ > 0;
  std::vector<model::HostCapacity> caps(cluster_.node_count());
  for (const NodeId h : cluster_.hosts()) {
    if (any_down && node_down_[h.index()]) continue;
    const auto& cap = cluster_.capacity(h);
    // The biased (admission) view differs from the raw residual in two
    // ways: a headroom fraction of mem/stor is withheld so healing has
    // spare room, and residual CPU is scaled by the host's availability
    // weight so Hosting's most-CPU ordering prefers reliable hosts.  Both
    // knobs default to no-ops, keeping the views byte-identical until the
    // orchestrator observes a failure.
    const double keep = biased ? 1.0 - admission_headroom_ : 1.0;
    const double weight =
        biased && h.index() < host_weights_.size() ? host_weights_[h.index()]
                                                   : 1.0;
    caps[h.index()] = {
        // Residual CPU may be negative (not a constraint); the mapper only
        // uses it as the balancing metric, so clamp for sanity.
        std::max(0.0, cap.proc_mips - (*proc)[h.index()]) * weight,
        std::max(0.0, cap.mem_mb * keep - (*mem)[h.index()]),
        std::max(0.0, cap.stor_gb * keep - (*stor)[h.index()]),
    };
  }
  std::vector<model::LinkProps> links(cluster_.link_count());
  for (std::size_t e = 0; e < links.size(); ++e) {
    const auto id = EdgeId{static_cast<EdgeId::underlying_type>(e)};
    if (any_down && edge_masked(id)) {
      links[e] = {0.0, std::numeric_limits<double>::infinity()};
      continue;
    }
    links[e] = {std::max(0.0, cluster_.link(id).bandwidth_mbps - (*bw)[e]),
                cluster_.link(id).latency_ms};
  }
  model::PhysicalCluster view = model::PhysicalCluster::with_resources(
      cluster_, std::move(caps), std::move(links));
  // Carry the failure-domain annotation through: mappers only ever see
  // residual views, so without this copy the replica-spread stage would
  // never observe the domains installed on the base cluster.
  view.set_failure_domains(cluster_.failure_domains());
  return view;
}

void TenancyManager::set_node_down(NodeId node, bool down) {
  if (node_down_[node.index()] == down) return;
  node_down_[node.index()] = down;
  if (down) {
    ++down_count_;
  } else {
    --down_count_;
  }
}

void TenancyManager::set_link_down(EdgeId edge, bool down) {
  if (edge_down_[edge.index()] == down) return;
  edge_down_[edge.index()] = down;
  if (down) {
    ++down_count_;
  } else {
    --down_count_;
  }
}

TenancyManager::State TenancyManager::export_state() const {
  State state;
  state.tenants.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) state.tenants.push_back(tenant);
  state.next_id = next_id_;
  state.node_down = node_down_;
  state.edge_down = edge_down_;
  state.host_weights = host_weights_;
  state.admission_headroom = admission_headroom_;
  state.used_proc = used_proc_;
  state.used_mem = used_mem_;
  state.used_stor = used_stor_;
  state.used_bw = used_bw_;
  return state;
}

namespace {

/// The rebuilt aggregate and the exported one may disagree by accumulated
/// rounding (ulps on values up to host capacity, across thousands of
/// add/remove ops) but never by a real reservation, which is O(1) or more.
void check_aggregate(const std::vector<double>& exact,
                     const std::vector<double>& rebuilt, const char* what) {
  if (exact.size() != rebuilt.size()) {
    throw std::invalid_argument(
        std::string("restored tenancy state: ") + what + " has " +
        std::to_string(exact.size()) + " entries, cluster expects " +
        std::to_string(rebuilt.size()));
  }
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double scale =
        std::max({1.0, std::abs(exact[i]), std::abs(rebuilt[i])});
    if (std::abs(exact[i] - rebuilt[i]) > 1e-6 * scale) {
      throw std::invalid_argument(
          std::string("restored tenancy state: ") + what + "[" +
          std::to_string(i) + "] = " + std::to_string(exact[i]) +
          " disagrees with the " + std::to_string(rebuilt[i]) +
          " its tenant mappings reserve");
    }
  }
}

/// Refuses a state that names a node or link `cluster` lacks, or whose
/// failure masks do not cover it exactly.  The checkpoint codec has no
/// cluster to check ids against, so restore checks them before applying.
void check_ids(const model::PhysicalCluster& cluster,
               const TenancyManager::State& state) {
  auto refuse = [](const std::string& why) {
    throw std::invalid_argument("restored tenancy state: " + why);
  };
  for (const Tenant& tenant : state.tenants) {
    const std::string who = "tenant " + std::to_string(tenant.id);
    if (tenant.mapping.guest_host.size() != tenant.venv.guest_count() ||
        tenant.mapping.link_paths.size() != tenant.venv.link_count()) {
      refuse(who + " has a mapping that does not match its guests and links");
    }
    for (const NodeId h : tenant.mapping.guest_host) {
      if (h.index() >= cluster.node_count() || !cluster.is_host(h)) {
        refuse(who + " places a guest on node " + std::to_string(h.value()) +
               ", which is not a host of this cluster");
      }
    }
    for (const graph::Path& path : tenant.mapping.link_paths) {
      for (const EdgeId e : path) {
        if (e.index() >= cluster.link_count()) {
          refuse(who + " routes over link " + std::to_string(e.value()) +
                 ", which this cluster lacks");
        }
      }
    }
  }
  if (state.node_down.size() != cluster.node_count() ||
      state.edge_down.size() != cluster.link_count()) {
    refuse("failure masks cover " + std::to_string(state.node_down.size()) +
           " nodes and " + std::to_string(state.edge_down.size()) +
           " links, cluster has " + std::to_string(cluster.node_count()) +
           " and " + std::to_string(cluster.link_count()));
  }
}

}  // namespace

void TenancyManager::restore_state(State state) {
  check_ids(cluster_, state);
  tenants_.clear();
  used_proc_.assign(cluster_.node_count(), 0.0);
  used_mem_.assign(cluster_.node_count(), 0.0);
  used_stor_.assign(cluster_.node_count(), 0.0);
  used_bw_.assign(cluster_.link_count(), 0.0);
  for (Tenant& tenant : state.tenants) {
    apply(tenant, +1.0);
    const TenantId id = tenant.id;
    tenants_.emplace(id, std::move(tenant));
  }
  // Install the exported aggregates bit-for-bit (after checking the
  // mappings actually back them): a restored run must see the *exact*
  // residuals the live run saw, or last-ulp differences flip near-ties.
  if (!state.used_proc.empty() || !state.used_mem.empty() ||
      !state.used_stor.empty() || !state.used_bw.empty()) {
    check_aggregate(state.used_proc, used_proc_, "used_proc");
    check_aggregate(state.used_mem, used_mem_, "used_mem");
    check_aggregate(state.used_stor, used_stor_, "used_stor");
    check_aggregate(state.used_bw, used_bw_, "used_bw");
    used_proc_ = std::move(state.used_proc);
    used_mem_ = std::move(state.used_mem);
    used_stor_ = std::move(state.used_stor);
    used_bw_ = std::move(state.used_bw);
  }
  next_id_ = state.next_id;
  node_down_ = std::move(state.node_down);
  edge_down_ = std::move(state.edge_down);
  down_count_ = static_cast<std::size_t>(
      std::count(node_down_.begin(), node_down_.end(), true) +
      std::count(edge_down_.begin(), edge_down_.end(), true));
  host_weights_ = std::move(state.host_weights);
  admission_headroom_ = state.admission_headroom;
}

core::FailureSet TenancyManager::failed_elements() const {
  core::FailureSet failed;
  for (std::size_t n = 0; n < node_down_.size(); ++n) {
    if (node_down_[n]) {
      failed.nodes.push_back(NodeId{static_cast<NodeId::underlying_type>(n)});
    }
  }
  for (std::size_t e = 0; e < edge_down_.size(); ++e) {
    if (edge_down_[e]) {
      failed.links.push_back(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    }
  }
  return failed;
}

TenancyManager::AdmissionResult TenancyManager::admit(
    std::string name, model::VirtualEnvironment venv, std::uint64_t seed,
    bool reserve_headroom) {
  AdmissionResult result;
  const model::PhysicalCluster view =
      residual_view(nullptr, /*biased=*/reserve_headroom);
  core::MapOutcome outcome = pool_.first_success(view, venv, seed);
  if (!outcome.ok()) {
    result.error = outcome.error;
    result.detail = std::move(outcome.detail);
    return result;
  }
  Tenant tenant;
  tenant.id = next_id_++;
  tenant.name = std::move(name);
  tenant.venv = std::move(venv);
  tenant.mapping = std::move(*outcome.mapping);
  apply(tenant, +1.0);
  result.tenant = tenant.id;
  tenants_.emplace(tenant.id, std::move(tenant));
  return result;
}

bool TenancyManager::release(TenantId id) {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return false;
  apply(it->second, -1.0);
  tenants_.erase(it);
  return true;
}

TenancyManager::GrowthResult TenancyManager::grow(
    TenantId id, model::VirtualEnvironment grown, std::uint64_t seed) {
  GrowthResult result;
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    result.error = core::MapErrorCode::kInvalidInput;
    result.detail = "unknown tenant";
    return result;
  }
  Tenant& tenant = it->second;
  if (grown.guest_count() < tenant.venv.guest_count() ||
      grown.link_count() < tenant.venv.link_count()) {
    result.error = core::MapErrorCode::kInvalidInput;
    result.detail = "grown environment is smaller than the running one";
    return result;
  }

  // The view excludes this tenant's own reservations: extend_mapping (and
  // the full-remap fallback) re-account the tenant against it from scratch.
  apply(tenant, -1.0);
  const model::PhysicalCluster view = residual_view();
  core::MapOutcome outcome = core::extend_mapping(view, grown, tenant.mapping);
  bool fell_back = false;
  if (!outcome.ok()) {
    outcome = pool_.first_success(view, grown, seed);
    fell_back = true;
  }
  if (!outcome.ok()) {
    apply(tenant, +1.0);  // restore: the tenant keeps running unchanged
    result.error = outcome.error;
    result.detail = std::move(outcome.detail);
    return result;
  }
  tenant.venv = std::move(grown);
  tenant.mapping = std::move(*outcome.mapping);
  apply(tenant, +1.0);
  result.ok = true;
  result.used_full_remap = fell_back;
  return result;
}

bool TenancyManager::update_mappings(
    std::vector<std::pair<TenantId, core::Mapping>> updates) {
  std::set<TenantId> seen;
  for (const auto& [id, mapping] : updates) {
    const auto it = tenants_.find(id);
    if (it == tenants_.end() || !seen.insert(id).second) return false;
    const Tenant& tenant = it->second;
    if (mapping.guest_host.size() != tenant.venv.guest_count() ||
        mapping.link_paths.size() != tenant.venv.link_count()) {
      return false;
    }
    for (const NodeId h : mapping.guest_host) {
      if (!h.valid() || !cluster_.is_host(h)) return false;
      if (node_down_[h.index()]) return false;  // never commit onto a corpse
    }
    for (const auto& path : mapping.link_paths) {
      for (const EdgeId e : path) {
        if (edge_masked(e)) return false;
      }
    }
  }

  // Install, then verify the aggregate; roll back wholesale on violation.
  std::vector<core::Mapping> previous;
  previous.reserve(updates.size());
  for (auto& [id, mapping] : updates) {
    Tenant& tenant = tenants_.at(id);
    previous.push_back(std::move(tenant.mapping));
    apply_mapping(tenant.venv, previous.back(), -1.0);
    tenant.mapping = std::move(mapping);
    apply_mapping(tenant.venv, tenant.mapping, +1.0);
  }

  bool feasible = true;
  for (const NodeId h : cluster_.hosts()) {
    const auto& cap = cluster_.capacity(h);
    const std::size_t i = h.index();
    const double eps_mem = 1e-6 * (1.0 + cap.mem_mb);
    const double eps_stor = 1e-6 * (1.0 + cap.stor_gb);
    if (used_mem_[i] > cap.mem_mb + eps_mem ||
        used_stor_[i] > cap.stor_gb + eps_stor) {
      feasible = false;
      break;
    }
  }
  if (feasible) {
    for (std::size_t e = 0; e < cluster_.link_count(); ++e) {
      const double cap =
          cluster_.link(EdgeId{static_cast<EdgeId::underlying_type>(e)})
              .bandwidth_mbps;
      if (used_bw_[e] > cap + 1e-6 * (1.0 + cap)) {
        feasible = false;
        break;
      }
    }
  }
  if (!feasible) {
    for (std::size_t k = updates.size(); k-- > 0;) {
      Tenant& tenant = tenants_.at(updates[k].first);
      apply_mapping(tenant.venv, tenant.mapping, -1.0);
      tenant.mapping = std::move(previous[k]);
      apply_mapping(tenant.venv, tenant.mapping, +1.0);
    }
    return false;
  }
  return true;
}

void TenancyManager::set_host_weights(std::vector<double> weights) {
  host_weights_ = std::move(weights);
  for (double& w : host_weights_) w = std::clamp(w, 1e-3, 1.0);
}

void TenancyManager::set_admission_headroom(double fraction) {
  admission_headroom_ = std::clamp(fraction, 0.0, 0.9);
}

std::vector<TenantId> TenancyManager::tenant_ids() const {
  std::vector<TenantId> ids;
  ids.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) ids.push_back(id);
  return ids;
}

std::vector<double> TenancyManager::residual_host_proc() const {
  std::vector<double> rproc;
  rproc.reserve(cluster_.host_count());
  for (const NodeId h : cluster_.hosts()) {
    rproc.push_back(cluster_.capacity(h).proc_mips - used_proc_[h.index()]);
  }
  return rproc;
}

double TenancyManager::residual_host_proc_sum() const {
  double sum = 0.0;
  for (const NodeId h : cluster_.hosts()) {
    sum += cluster_.capacity(h).proc_mips - used_proc_[h.index()];
  }
  return sum;
}

const Tenant* TenancyManager::tenant(TenantId id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

TenancyUtilization TenancyManager::utilization() const {
  TenancyUtilization u;
  u.tenants = tenants_.size();
  double total_mem = 0.0, total_stor = 0.0, total_proc = 0.0;
  double used_mem = 0.0, used_stor = 0.0, used_proc = 0.0;
  for (const NodeId h : cluster_.hosts()) {
    const auto& cap = cluster_.capacity(h);
    total_mem += cap.mem_mb;
    total_stor += cap.stor_gb;
    total_proc += cap.proc_mips;
    used_mem += used_mem_[h.index()];
    used_stor += used_stor_[h.index()];
    used_proc += used_proc_[h.index()];
  }
  u.mem_fraction = total_mem > 0 ? used_mem / total_mem : 0.0;
  u.stor_fraction = total_stor > 0 ? used_stor / total_stor : 0.0;
  u.proc_fraction = total_proc > 0 ? used_proc / total_proc : 0.0;
  for (std::size_t e = 0; e < cluster_.link_count(); ++e) {
    const double cap = cluster_.link(EdgeId{static_cast<EdgeId::underlying_type>(e)})
                           .bandwidth_mbps;
    if (cap > 0) {
      u.peak_link_fraction = std::max(u.peak_link_fraction, used_bw_[e] / cap);
    }
  }
  for (const auto& [id, tenant] : tenants_) {
    u.guests += tenant.venv.guest_count();
  }
  return u;
}

}  // namespace hmn::emulator
