// Stage 2 — Migration (Section 4.2): improve load balance by reassigning
// guests from the most-loaded host to less-loaded ones.
//
// Each iteration selects the most-loaded host (smallest residual CPU) as
// migration origin and, from it, the guest with the smallest total
// bandwidth to co-located guests (so the move disturbs the Hosting stage's
// affinity groupings as little as possible).  Candidate targets are tried
// from least loaded upward; the move is committed only if the load-balance
// factor (Eq. 10) strictly improves and the guest fits.  The stage stops
// when the chosen guest cannot improve the factor on any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/residual.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// How the stage chooses which guest to move off the most-loaded host.
enum class VictimPolicy : std::uint8_t {
  /// The paper's rule (Section 4.2): the guest with the smallest total
  /// bandwidth to co-located guests, minimizing physical-link use.  If that
  /// single guest cannot improve the factor anywhere, the stage stops.
  kMinColocatedBandwidth,
  /// Extension: consider *every* guest on the most-loaded host and commit
  /// the (guest, target) move with the largest factor reduction; stop only
  /// when no guest on that host improves it.  Finds strictly more balanced
  /// assignments at higher cost — quantified in bench E5.
  kBestImprovement,
};

struct MigrationOptions {
  VictimPolicy victim = VictimPolicy::kMinColocatedBandwidth;
  /// Upper bound on reassignments; 0 = unlimited.  The loop terminates on
  /// its own (the factor strictly decreases and is bounded below), but the
  /// cap makes worst-case cost explicit for very large environments.
  std::size_t max_migrations = 0;
};

struct MigrationResult {
  std::size_t migrations = 0;        // reassignments performed
  double initial_lbf = 0.0;          // Eq. 10 before the stage
  double final_lbf = 0.0;            // Eq. 10 after the stage
};

/// Runs the Migration stage over state.hosts(), updating `guest_host` and
/// `state` in place.  Every guest must sit on a host of state.hosts().
MigrationResult run_migration(const model::VirtualEnvironment& venv,
                              ResidualState& state,
                              std::vector<NodeId>& guest_host,
                              const MigrationOptions& opts = {});

}  // namespace hmn::core
