// The multilevel coarsen–map–refine mapper: a drop-in core::Mapper that
// makes admission cost scale with the tenant and the local neighborhood it
// lands in, not with the whole fabric.
//
// Pipeline (DESIGN.md §8):
//   1. coarsen the fabric into a structural pyramid (physical_coarsener;
//      shareable across calls) and the virtual environment into
//      super-guests (virtual_coarsener; per call);
//   2. coarse solve: run the paper's Hosting + Migration + Networking
//      stages on the coarsest cluster × coarsest venv;
//   3. expand the virtual merge history exactly (members co-locate on their
//      super-guest's coarse node, member links inherit coarse paths);
//   4. uncoarsen one physical level at a time: each occupied coarse node
//      expands into its member hosts where Hosting + Migration re-run
//      locally (the refinement frontier) — widening to the adjacent ring
//      and then the whole level when the group's hosts cannot carry the
//      per-host bin-packing — then Networking re-routes over
//      the region induced by the occupied groups plus the groups under the
//      previous level's paths — widening once, then to the full level, if
//      the region cannot carry the links.  A region is a view of its level
//      (a host list and a node mask over one residual state and one link
//      router per level), never a copy;
//   5. core::validate_mapping checks every level; any violation or stage
//      failure falls back to the flat HMN mapper, so the multilevel path
//      can only lose time, never admissions.
//
// Determinism: no randomness is consumed anywhere in the pipeline (stage
// options use the paper's bandwidth-descending orders); identical inputs
// give byte-identical mappings regardless of thread count or hierarchy
// sharing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hmn_mapper.h"
#include "core/mapper.h"
#include "core/residual.h"
#include "multilevel/physical_coarsener.h"
#include "multilevel/virtual_coarsener.h"

namespace hmn::multilevel {

/// Progress event for observers (examples/multilevel_demo): one per
/// pipeline stage, in execution order.  Display-only — observers must not
/// feed anything back into the decision path.
struct LevelEvent {
  std::string stage;       // "hierarchy", "coarsen-virtual", "coarse-solve",
                           // "refine", or "fallback: <failed stage>"
  std::size_t level = 0;   // physical level the event refers to (0 = base)
  std::size_t nodes = 0;   // cluster nodes at that level
  std::size_t guests = 0;  // venv guests in play at that stage
};
using LevelObserver = std::function<void(const LevelEvent&)>;

/// The coarse solve, the per-level refinement and the flat fallback all
/// run the paper's stage choices (HmnOptions defaults).
struct MultilevelOptions {
  VirtualCoarsenOptions virt;
  PhysicalCoarsenOptions phys;
  /// Below this host count the pyramid adds nothing over a flat solve:
  /// delegate to the flat mapper directly.
  std::size_t min_hosts = 256;
  /// Optional progress observer (display only).
  LevelObserver observer;
};

/// The refiner's check before it hosts a group of guests on a region of a
/// level (DESIGN §8): the first guest of `group` that fits (Eqs. 2-3) on
/// no host of state.hosts().  The refiner asks it of the state its Hosting
/// stage is about to start from: restricted to the region's hosts, with
/// the guests placed inside the region so far charged in ascending guest
/// order.  Hosting only shrinks memory and storage residuals, so when this
/// names a guest, core::run_hosting fails on that state.  invalid() when
/// every guest of the group fits some host, or when one has a negative (or
/// NaN) memory or storage demand, whose placement could grow a residual.
[[nodiscard]] GuestId unhostable_guest(const core::ResidualState& state,
                                       const model::VirtualEnvironment& venv,
                                       std::span<const GuestId> group);

class MultilevelMapper final : public core::Mapper {
 public:
  explicit MultilevelMapper(MultilevelOptions opts = {});
  /// Shares a prebuilt structural hierarchy (e.g. one per router shard).
  /// Compatibility is checked per call; a mismatched cluster triggers a
  /// local rebuild, so a shared hierarchy is a cache, never a correctness
  /// dependency.
  MultilevelMapper(MultilevelOptions opts,
                   std::shared_ptr<const PhysicalHierarchy> hierarchy);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] core::MapOutcome map(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment& venv,
                                     std::uint64_t seed) const override;

  [[nodiscard]] const MultilevelOptions& options() const { return opts_; }

 private:
  MultilevelOptions opts_;
  std::shared_ptr<const PhysicalHierarchy> hierarchy_;
  core::HmnMapper flat_;
};

}  // namespace hmn::multilevel
