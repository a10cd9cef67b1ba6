// Automated emulation session — the frontend the paper's project builds
// HMN for (Section 1: an emulator "able to build the virtual system and
// trigger the applications"; mapping is "an important step of the process
// of building the emulated environment").
//
// An EmulationSession walks the testbed lifecycle as a state machine:
//
//   kDefining --map()--> kMapped --deploy()--> kDeployed --run()--> kDone
//        ^                  |                      |
//        +--- add_guest/add_link (growth re-enters kDefining; the next
//             map() extends the existing mapping incrementally and falls
//             back to a full remap only when the increment does not fit)
//
// Every stage is simulated and deterministic: map() invokes the heuristic
// pool (HMN with an RA fallback), deploy() uses the image-transfer
// model, run() executes the BSP application on the DES.  The
// session keeps a timeline of phase durations — wall-clock for mapping
// (the cost the paper measures) and simulated seconds for deployment and
// execution (the costs the paper argues dominate).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/map_result.h"
#include "extensions/heuristic_pool.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"
#include "sim/deployment.h"
#include "sim/experiment.h"

namespace hmn::emulator {

enum class Phase : std::uint8_t {
  kDefining,  // virtual environment under construction / grown
  kMapped,    // mapping computed and validated
  kDeployed,  // images transferred and guests booted (simulated)
  kDone,      // experiment executed (simulated)
  kFailed,    // unrecoverable error; see last_error()
};

[[nodiscard]] constexpr const char* to_string(Phase p) {
  switch (p) {
    case Phase::kDefining: return "defining";
    case Phase::kMapped: return "mapped";
    case Phase::kDeployed: return "deployed";
    case Phase::kDone: return "done";
    case Phase::kFailed: return "failed";
  }
  return "?";
}

struct SessionConfig {
  std::uint64_t seed = 1;
  /// Deducted from every host before any mapping (Section 3.1's VMM
  /// resource consumption).
  model::HostCapacity vmm_overhead{};
  sim::DeploymentSpec deployment;
  sim::ExperimentSpec experiment;
};

/// One entry of the session timeline.
struct PhaseRecord {
  std::string phase;       // "map", "extend", "remap", "deploy", "run"
  double wall_seconds;     // real computation time spent by the library
  double simulated_seconds;  // testbed time the phase would take (0 for map)
  std::string note;
};

/// A session timeline as a JSON array (for frontends logging sessions).
/// Lives here rather than in io so that io never includes upward into the
/// emulator layer.
[[nodiscard]] std::string to_json(const std::vector<PhaseRecord>& timeline);

class EmulationSession {
 public:
  EmulationSession(model::PhysicalCluster cluster, SessionConfig config);

  // --- Define / grow (allowed in kDefining, or after mapping: the session
  // drops back to kDefining and the next map() extends incrementally).
  GuestId add_guest(const model::GuestRequirements& req);
  VirtLinkId add_link(GuestId a, GuestId b,
                      const model::VirtualLinkDemand& demand);

  /// Computes (or, after growth, extends) the mapping and validates it.
  /// Returns success; on failure the session enters kFailed with the
  /// mapper's diagnostic unless no mapping existed before (then it stays
  /// kDefining so the tester can adjust the environment).
  bool map();

  /// Simulates image deployment.  Requires kMapped.
  bool deploy();

  /// Simulates the distributed experiment.  Requires kDeployed.
  bool run();

  /// Injects a host failure into a mapped/deployed session: the mapping is
  /// repaired (evicted guests re-placed, severed paths re-routed) and, if
  /// the session was deployed, the refugees' redeployment is charged to
  /// the timeline.  On unrepairable damage the session enters kFailed.
  /// Requires at least kMapped.
  bool inject_host_failure(NodeId host);

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] const std::string& last_error() const { return error_; }
  [[nodiscard]] const model::PhysicalCluster& cluster() const {
    return cluster_;
  }
  [[nodiscard]] const model::VirtualEnvironment& venv() const { return venv_; }
  /// Valid in kMapped and later.
  [[nodiscard]] const core::Mapping& mapping() const { return *mapping_; }
  [[nodiscard]] bool has_mapping() const { return mapping_.has_value(); }
  /// Valid in kDone.
  [[nodiscard]] const sim::ExperimentResult& experiment_result() const {
    return experiment_result_;
  }
  [[nodiscard]] const std::vector<PhaseRecord>& timeline() const {
    return timeline_;
  }
  /// Total simulated testbed time accrued (deploy + run phases).
  [[nodiscard]] double simulated_seconds() const;
  /// Human-readable session summary.
  [[nodiscard]] std::string report() const;

 private:
  bool fail(std::string why);

  model::PhysicalCluster cluster_;
  SessionConfig config_;
  model::VirtualEnvironment venv_;
  extensions::HeuristicPool pool_;
  Phase phase_ = Phase::kDefining;
  std::optional<core::Mapping> mapping_;  // of the first N guests/links
  std::size_t mapped_guests_ = 0;
  std::size_t mapped_links_ = 0;
  std::size_t deployed_guests_ = 0;
  sim::ExperimentResult experiment_result_;
  std::vector<PhaseRecord> timeline_;
  std::string error_;
  std::uint64_t map_calls_ = 0;
};

}  // namespace hmn::emulator
