#include "orchestrator/defrag.h"

#include <iterator>
#include <utility>
#include <vector>

#include "core/migration.h"
#include "core/networking.h"
#include "core/objective.h"
#include "core/residual.h"
#include "util/timer.h"

namespace hmn::orchestrator {

DefragResult run_defrag(emulator::TenancyManager& mgr) {
  DefragResult result;
  result.lbf_before = core::load_balance_factor(mgr.residual_host_proc());
  result.lbf_after = result.lbf_before;
  const std::vector<emulator::TenantId> ids = mgr.tenant_ids();
  if (ids.empty()) {
    result.detail = "no tenants";
    return result;
  }

  // Aggregate every tenant into one environment; guests and links keep
  // their per-tenant order, offset by the tenants before them.
  model::VirtualEnvironment combined;
  core::Mapping placement;  // guest hosts only; every link is routed afresh
  struct Slice {
    emulator::TenantId id;
    std::size_t guest_begin = 0, guest_end = 0;
    std::size_t link_begin = 0, link_end = 0;
  };
  std::vector<Slice> slices;
  slices.reserve(ids.size());
  for (const emulator::TenantId id : ids) {
    const emulator::Tenant* tenant = mgr.tenant(id);
    Slice slice;
    slice.id = id;
    slice.guest_begin = combined.guest_count();
    slice.link_begin = combined.link_count();
    const auto offset =
        static_cast<GuestId::underlying_type>(combined.guest_count());
    for (std::size_t g = 0; g < tenant->venv.guest_count(); ++g) {
      combined.add_guest(tenant->venv.guest(
          GuestId{static_cast<GuestId::underlying_type>(g)}));
      placement.guest_host.push_back(tenant->mapping.guest_host[g]);
    }
    for (std::size_t l = 0; l < tenant->venv.link_count(); ++l) {
      const auto lid = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
      const auto ep = tenant->venv.endpoints(lid);
      combined.add_link(GuestId{offset + ep.src.value()},
                        GuestId{offset + ep.dst.value()},
                        tenant->venv.link(lid));
    }
    slice.guest_end = combined.guest_count();
    slice.link_end = combined.link_count();
    slices.push_back(slice);
  }

  // Migration stage over the aggregate placement (memory/storage fits are
  // enforced per move; bandwidth is resolved by the global re-route below).
  util::Timer stage;
  core::ResidualState state(mgr.cluster(), combined, placement);
  const core::MigrationResult moved = core::run_migration(
      combined, state, placement.guest_host,
      {.victim = core::VictimPolicy::kBestImprovement});
  result.migrations = moved.migrations;
  result.migration_seconds = stage.elapsed_seconds();

  // Global routing pass: every inter-host link afresh, heaviest first, on
  // the same state.  The placement carries no paths, so every link's
  // residual bandwidth in `state` is its capacity; Migration changed only
  // CPU, memory and storage, which routing never reads.
  stage.restart();
  core::LinkRouter router(state, mgr.latency_tables());
  core::NetworkingResult net = core::run_networking(
      combined, state, placement.guest_host, {}, &router);
  result.reroute_seconds = stage.elapsed_seconds();
  if (!net.ok) {
    result.detail = "re-route failed: " + net.detail;
    return result;
  }
  result.links_rerouted = net.links_routed;

  std::vector<std::pair<emulator::TenantId, core::Mapping>> updates;
  updates.reserve(slices.size());
  for (const Slice& slice : slices) {
    core::Mapping mapping;
    mapping.guest_host.assign(
        placement.guest_host.begin() +
            static_cast<std::ptrdiff_t>(slice.guest_begin),
        placement.guest_host.begin() +
            static_cast<std::ptrdiff_t>(slice.guest_end));
    mapping.link_paths.assign(
        std::make_move_iterator(net.link_paths.begin() +
                                static_cast<std::ptrdiff_t>(slice.link_begin)),
        std::make_move_iterator(net.link_paths.begin() +
                                static_cast<std::ptrdiff_t>(slice.link_end)));
    updates.emplace_back(slice.id, std::move(mapping));
  }
  if (!mgr.update_mappings(std::move(updates))) {
    result.detail = "commit rejected by TenancyManager";
    return result;
  }
  result.committed = true;
  result.lbf_after = core::load_balance_factor(mgr.residual_host_proc());
  return result;
}

}  // namespace hmn::orchestrator
