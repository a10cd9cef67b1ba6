// TenancyManager's residual views against a copy-based reference: the view
// a mapper receives must equal, field by field and bit for bit, the one
// built by copying the topology and the four reservation arrays, for the
// plain view, a view excluding one tenant, the biased admission view, and
// views with failed nodes and links.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hmn_mapper.h"
#include "core/mapper.h"
#include "emulator/tenancy.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/presets.h"
#include "workload/venv_generator.h"

namespace {

using namespace hmn;
using emulator::TenancyManager;

/// The residual view built the copy-based way: the topology and the
/// aggregates copied, the excluded tenant handed back, then
/// PhysicalCluster::build.  Reads only the manager's public state.
model::PhysicalCluster reference_view(const TenancyManager& mgr,
                                      const emulator::Tenant* exclude,
                                      bool biased) {
  const TenancyManager::State st = mgr.export_state();
  const model::PhysicalCluster& base = mgr.cluster();
  std::vector<double> proc = st.used_proc;
  std::vector<double> mem = st.used_mem;
  std::vector<double> stor = st.used_stor;
  std::vector<double> bw = st.used_bw;
  if (exclude != nullptr) {
    for (std::size_t g = 0; g < exclude->venv.guest_count(); ++g) {
      const auto& req = exclude->venv.guest(
          GuestId{static_cast<GuestId::underlying_type>(g)});
      const std::size_t h = exclude->mapping.guest_host[g].index();
      proc[h] -= req.proc_mips;
      mem[h] -= req.mem_mb;
      stor[h] -= req.stor_gb;
    }
    for (std::size_t l = 0; l < exclude->venv.link_count(); ++l) {
      const double demand =
          exclude->venv
              .link(VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)})
              .bandwidth_mbps;
      for (const EdgeId e : exclude->mapping.link_paths[l]) {
        bw[e.index()] -= demand;
      }
    }
  }
  std::vector<model::HostCapacity> caps;
  for (const NodeId h : base.hosts()) {
    if (st.node_down[h.index()]) {
      caps.push_back({});
      continue;
    }
    const auto& cap = base.capacity(h);
    const double keep = biased ? 1.0 - st.admission_headroom : 1.0;
    const double weight = biased && h.index() < st.host_weights.size()
                              ? st.host_weights[h.index()]
                              : 1.0;
    caps.push_back({std::max(0.0, cap.proc_mips - proc[h.index()]) * weight,
                    std::max(0.0, cap.mem_mb * keep - mem[h.index()]),
                    std::max(0.0, cap.stor_gb * keep - stor[h.index()])});
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < base.link_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    const auto ep = base.graph().endpoints(id);
    if (st.edge_down[e] || st.node_down[ep.a.index()] ||
        st.node_down[ep.b.index()]) {
      links.push_back({0.0, std::numeric_limits<double>::infinity()});
      continue;
    }
    links.push_back({std::max(0.0, base.link(id).bandwidth_mbps - bw[e]),
                     base.link(id).latency_ms});
  }
  model::PhysicalCluster view = model::PhysicalCluster::build(
      base.topology(), std::move(caps), std::move(links));
  view.set_failure_domains(base.failure_domains());
  return view;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_view(const model::PhysicalCluster& got,
                      const model::PhysicalCluster& want,
                      const model::PhysicalCluster& base) {
  // The view reads the base's fabric: the same graph object and hosts.
  EXPECT_EQ(got.fabric(), base.fabric());
  EXPECT_EQ(&got.graph(), &base.graph());
  ASSERT_TRUE(got.fabric()->same_structure(*want.fabric()));
  EXPECT_EQ(got.hosts(), want.hosts());
  for (std::size_t n = 0; n < want.node_count(); ++n) {
    const NodeId id{static_cast<NodeId::underlying_type>(n)};
    EXPECT_TRUE(
        same_bits(got.capacity(id).proc_mips, want.capacity(id).proc_mips))
        << "node " << n;
    EXPECT_TRUE(same_bits(got.capacity(id).mem_mb, want.capacity(id).mem_mb))
        << "node " << n;
    EXPECT_TRUE(
        same_bits(got.capacity(id).stor_gb, want.capacity(id).stor_gb))
        << "node " << n;
  }
  for (std::size_t e = 0; e < want.link_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_TRUE(same_bits(got.link(id).bandwidth_mbps,
                          want.link(id).bandwidth_mbps))
        << "edge " << e;
    EXPECT_TRUE(same_bits(got.link(id).latency_ms, want.link(id).latency_ms))
        << "edge " << e;
  }
  EXPECT_EQ(got.failure_domains().blast_domain,
            want.failure_domains().blast_domain);
  EXPECT_EQ(got.failure_domains().power_domain,
            want.failure_domains().power_domain);
}

/// Records the cluster of every map() call and fails, so the next mapper
/// in the pool does the admitting: the views a mapper receives.
class RecordingMapper final : public core::Mapper {
 public:
  explicit RecordingMapper(
      std::shared_ptr<std::optional<model::PhysicalCluster>> seen)
      : seen_(std::move(seen)) {}
  [[nodiscard]] std::string name() const override { return "record"; }
  [[nodiscard]] core::MapOutcome map(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment&,
                                     std::uint64_t) const override {
    *seen_ = cluster;
    return core::MapOutcome::failure(core::MapErrorCode::kInvalidInput,
                                     "recorded");
  }

 private:
  std::shared_ptr<std::optional<model::PhysicalCluster>> seen_;
};

model::PhysicalCluster varied_tree() {
  auto topo = topology::switch_tree(96, 8, 4);
  const std::size_t hosts = topo.host_count();
  std::vector<model::HostCapacity> caps;
  for (std::size_t i = 0; i < hosts; ++i) {
    const double x = static_cast<double>(i);
    caps.push_back({1000.0 + 0.37 * x, 4096.0 - 1.3 * x, 1024.0 + 0.11 * x});
  }
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < topo.graph.edge_count(); ++e) {
    const double x = static_cast<double>(e % 13);
    links.push_back({1000.0 - 3.1 * x, 0.5 + 0.07 * x});
  }
  model::PhysicalCluster c = model::PhysicalCluster::build(
      std::move(topo), std::move(caps), std::move(links));
  model::FailureDomains domains;
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    domains.blast_domain.push_back(static_cast<std::uint32_t>(n / 9));
    domains.power_domain.push_back(static_cast<std::uint32_t>(n % 4));
  }
  c.set_failure_domains(std::move(domains));
  return c;
}

model::VirtualEnvironment tenant_venv(std::uint64_t seed,
                                      const model::PhysicalCluster& fabric) {
  util::Rng rng(seed);
  workload::VenvGenOptions vopts;
  vopts.guest_count = 6 + seed % 5;
  vopts.density = 0.4;
  vopts.profile = workload::high_level_profile();
  vopts.normalize_to = &fabric;
  return workload::generate_venv(vopts, rng);
}

struct Loaded {
  std::shared_ptr<std::optional<model::PhysicalCluster>> seen =
      std::make_shared<std::optional<model::PhysicalCluster>>();
  std::unique_ptr<TenancyManager> mgr;
};

/// A manager over varied_tree() with a few tenants admitted through a pool
/// that records each admission view before HMN maps it.
Loaded loaded_manager() {
  Loaded l;
  extensions::HeuristicPool pool;
  pool.add(std::make_unique<RecordingMapper>(l.seen));
  pool.add(std::make_unique<core::HmnMapper>());
  l.mgr = std::make_unique<TenancyManager>(varied_tree(), std::move(pool));
  for (std::uint64_t t = 0; t < 8; ++t) {
    const auto r = l.mgr->admit("t" + std::to_string(t),
                                tenant_venv(t, l.mgr->cluster()), t);
    EXPECT_TRUE(r.ok()) << r.detail;
  }
  return l;
}

TEST(ResidualView, PlainAndExcludingViewsMatchTheCopyBasedReference) {
  const Loaded l = loaded_manager();
  const TenancyManager& mgr = *l.mgr;
  ASSERT_GT(mgr.tenant_count(), 2u);
  expect_same_view(mgr.residual_cluster(), reference_view(mgr, nullptr, false),
                   mgr.cluster());
  for (const emulator::TenantId id : mgr.tenant_ids()) {
    expect_same_view(mgr.residual_cluster_excluding(id),
                     reference_view(mgr, mgr.tenant(id), false),
                     mgr.cluster());
  }
}

TEST(ResidualView, MaskedViewsMatchTheCopyBasedReference) {
  const Loaded l = loaded_manager();
  TenancyManager& mgr = *l.mgr;
  const model::PhysicalCluster& base = mgr.cluster();
  mgr.set_node_down(base.hosts()[2], true);
  mgr.set_node_down(base.hosts()[40], true);
  mgr.set_link_down(EdgeId{5}, true);
  mgr.set_link_down(EdgeId{70}, true);
  // A switch: every link under it goes dark with it.
  for (std::size_t n = 0; n < base.node_count(); ++n) {
    const NodeId id{static_cast<NodeId::underlying_type>(n)};
    if (!base.is_host(id)) {
      mgr.set_node_down(id, true);
      break;
    }
  }
  ASSERT_TRUE(mgr.has_failed_elements());
  expect_same_view(mgr.residual_cluster(), reference_view(mgr, nullptr, false),
                   base);
  const emulator::TenantId first = mgr.tenant_ids().front();
  expect_same_view(mgr.residual_cluster_excluding(first),
                   reference_view(mgr, mgr.tenant(first), false), base);

  // Up again: the unmasked arithmetic returns.
  mgr.set_link_down(EdgeId{5}, false);
  expect_same_view(mgr.residual_cluster(), reference_view(mgr, nullptr, false),
                   base);
}

TEST(ResidualView, BiasedAdmissionViewMatchesTheCopyBasedReference) {
  const Loaded l = loaded_manager();
  TenancyManager& mgr = *l.mgr;
  const model::PhysicalCluster& base = mgr.cluster();
  std::vector<double> weights(base.node_count(), 1.0);
  for (std::size_t n = 0; n < weights.size(); n += 3) weights[n] = 0.61;
  weights.resize(weights.size() - 5);  // the last hosts have no weight
  mgr.set_host_weights(weights);
  mgr.set_admission_headroom(0.15);

  for (const bool masked : {false, true}) {
    if (masked) {
      mgr.set_node_down(base.hosts()[11], true);
      mgr.set_link_down(EdgeId{9}, true);
    }
    const model::PhysicalCluster want = reference_view(mgr, nullptr, true);
    l.seen->reset();
    (void)mgr.admit("probe", tenant_venv(99, base), 99);
    ASSERT_TRUE(l.seen->has_value());
    expect_same_view(**l.seen, want, base);

    // Healer re-admissions map against the unbiased view.
    l.seen->reset();
    const model::PhysicalCluster plain = reference_view(mgr, nullptr, false);
    (void)mgr.admit("refugee", tenant_venv(98, base), 98,
                    /*reserve_headroom=*/false);
    ASSERT_TRUE(l.seen->has_value());
    expect_same_view(**l.seen, plain, base);
  }
}

}  // namespace
