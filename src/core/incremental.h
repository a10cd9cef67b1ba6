// Incremental extension of an existing mapping.
//
// The paper's emulator workflow (Section 1) builds the virtual system once,
// but real testbed sessions evolve: a tester adds emulated nodes or links
// to a running experiment and wants them placed *without disturbing* the
// guests already deployed (re-deploying a VM is far more expensive than
// placing a new one).  `extend_mapping` maps only the new guests and new
// virtual links of a grown environment over the residual capacity left by
// an existing valid mapping:
//
//   * existing guests keep their hosts, existing links keep their paths;
//   * new guests are placed with the Hosting stage's single-guest
//     affinity rule (core::affinity_host: co-locate with the
//     heaviest-bandwidth already-placed neighbor when possible, else the
//     most-available-CPU host that fits);
//   * new links are routed with the Networking stage's link router
//     (core::LinkRouter) over residual bandwidth.
//
// This is the library's own extension of the paper (its "fully-automated
// emulator" project would need exactly this step); it reuses the paper's
// machinery unchanged.
#pragma once

#include "core/map_result.h"
#include "core/mapping.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// Extends `base` (a valid mapping of the first `base.guest_host.size()`
/// guests and first `base.link_paths.size()` links of `grown`) to cover all
/// of `grown`.  Precondition: `grown` is `venv-of-base` plus appended
/// guests/links — existing ids must be unchanged.  New links are routed
/// with the modified A*Prune over residual bandwidth, heaviest first.
///
/// On success the returned mapping agrees with `base` on every old guest
/// and link.  Fails with kHostingFailed / kNetworkingFailed when the
/// residual capacity cannot absorb the growth (the caller may then fall
/// back to a full remap).
[[nodiscard]] MapOutcome extend_mapping(const model::PhysicalCluster& cluster,
                                        const model::VirtualEnvironment& grown,
                                        const Mapping& base);

}  // namespace hmn::core
