#include "emulator/session.h"

#include <cmath>
#include <sstream>

#include "core/incremental.h"
#include "core/repair.h"
#include "core/validator.h"
#include "io/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace hmn::emulator {

EmulationSession::EmulationSession(model::PhysicalCluster cluster,
                                   SessionConfig config)
    : cluster_(std::move(cluster)),
      config_(config),
      pool_(extensions::default_pool()) {
  cluster_.deduct_vmm_overhead(config_.vmm_overhead);
}

GuestId EmulationSession::add_guest(const model::GuestRequirements& req) {
  if (phase_ == Phase::kMapped || phase_ == Phase::kDeployed ||
      phase_ == Phase::kDone) {
    phase_ = Phase::kDefining;  // growth re-opens the definition
  }
  return venv_.add_guest(req);
}

VirtLinkId EmulationSession::add_link(GuestId a, GuestId b,
                                      const model::VirtualLinkDemand& demand) {
  if (phase_ == Phase::kMapped || phase_ == Phase::kDeployed ||
      phase_ == Phase::kDone) {
    phase_ = Phase::kDefining;
  }
  return venv_.add_link(a, b, demand);
}

bool EmulationSession::fail(std::string why) {
  error_ = std::move(why);
  phase_ = Phase::kFailed;
  return false;
}

bool EmulationSession::map() {
  if (phase_ == Phase::kFailed) return false;
  if (phase_ != Phase::kDefining) return true;  // nothing new to map

  const std::uint64_t seed =
      util::derive_seed(config_.seed, 0x6d6170, map_calls_++);
  const util::Timer timer;

  core::MapOutcome outcome;
  std::string how = "map";
  if (mapping_.has_value() && mapped_guests_ <= venv_.guest_count()) {
    // Grown environment: extend the existing mapping; full remap fallback.
    outcome = core::extend_mapping(cluster_, venv_, *mapping_);
    how = "extend";
    if (!outcome.ok()) {
      outcome = pool_.first_success(cluster_, venv_, seed);
      how = "remap";
    }
  } else {
    outcome = pool_.first_success(cluster_, venv_, seed);
  }

  if (!outcome.ok()) {
    // A first mapping that fails leaves the session definable (the tester
    // can trim the environment); a failed growth is unrecoverable here.
    error_ = std::string(core::to_string(outcome.error)) + ": " +
             outcome.detail;
    timeline_.push_back({how, timer.elapsed_seconds(), 0.0, error_});
    if (mapping_.has_value()) phase_ = Phase::kFailed;
    return false;
  }
  const auto report = core::validate_mapping(cluster_, venv_, *outcome.mapping);
  if (!report.ok()) {
    return fail("mapper produced an invalid mapping: " + report.summary());
  }

  mapping_ = std::move(outcome.mapping);
  mapped_guests_ = venv_.guest_count();
  mapped_links_ = venv_.link_count();
  timeline_.push_back({how, timer.elapsed_seconds(), 0.0,
                       std::to_string(mapped_guests_) + " guests"});
  phase_ = Phase::kMapped;
  return true;
}

bool EmulationSession::deploy() {
  if (phase_ == Phase::kFailed) return false;
  if (phase_ == Phase::kDefining) {
    error_ = "deploy() requires a mapping; call map() first";
    return false;
  }
  if (phase_ != Phase::kMapped) return true;  // already deployed

  const util::Timer timer;
  // Only the increment is deployed: guests placed by an earlier deploy()
  // stay running (the point of incremental extension).
  sim::DeploymentSpec spec = config_.deployment;
  spec.first_guest = deployed_guests_;
  const auto result =
      sim::estimate_deployment(cluster_, venv_, *mapping_, spec);
  if (!std::isfinite(result.total_seconds)) {
    return fail("deployment impossible: repository cannot reach some host");
  }
  deployed_guests_ = venv_.guest_count();
  timeline_.push_back({"deploy", timer.elapsed_seconds(),
                       result.total_seconds,
                       std::to_string(result.bytes_moved_gb) + " GB moved"});
  phase_ = Phase::kDeployed;
  return true;
}

bool EmulationSession::run() {
  if (phase_ == Phase::kFailed) return false;
  if (phase_ != Phase::kDeployed) {
    error_ = "run() requires a deployed session";
    return false;
  }
  const util::Timer timer;
  sim::ExperimentSpec spec = config_.experiment;
  spec.seed = util::derive_seed(config_.seed, 0x72756e, map_calls_);
  experiment_result_ = sim::run_experiment(cluster_, venv_, *mapping_, spec);
  std::ostringstream note;
  note << experiment_result_.messages_delivered << " messages, "
       << experiment_result_.events_processed << " events";
  timeline_.push_back({"run", timer.elapsed_seconds(),
                       experiment_result_.makespan_seconds, note.str()});
  phase_ = Phase::kDone;
  return true;
}

bool EmulationSession::inject_host_failure(NodeId host) {
  if (phase_ == Phase::kFailed) return false;
  if (!mapping_.has_value() || phase_ == Phase::kDefining) {
    error_ = "inject_host_failure() requires a mapped session";
    return false;
  }
  const util::Timer timer;
  core::RepairStats stats;
  auto out = core::repair_mapping(cluster_, venv_, *mapping_, host, &stats);
  if (!out.ok()) {
    return fail("host " + std::to_string(host.value()) +
                " failure unrepairable: " + out.detail);
  }
  const auto report = core::validate_mapping(cluster_, venv_, *out.mapping);
  if (!report.ok()) {
    return fail("repair produced an invalid mapping: " + report.summary());
  }

  // Redeploy only the refugees when the session had deployed them.
  double redeploy_seconds = 0.0;
  if (phase_ == Phase::kDeployed || phase_ == Phase::kDone) {
    std::vector<bool> moved(venv_.guest_count(), false);
    for (std::size_t g = 0; g < venv_.guest_count(); ++g) {
      moved[g] = g < deployed_guests_ &&
                 mapping_->guest_host[g] != out.mapping->guest_host[g];
    }
    sim::DeploymentSpec spec = config_.deployment;
    spec.include = &moved;
    redeploy_seconds =
        sim::estimate_deployment(cluster_, venv_, *out.mapping, spec)
            .total_seconds;
    phase_ = Phase::kDeployed;  // experiment results are stale after a
                                // failure: require a new run()
  }
  mapping_ = std::move(out.mapping);
  // The host stays failed for the rest of the session: zero its capacity
  // and kill its links so later growth, remaps, and routing avoid it.
  cluster_.fail_node(host);
  timeline_.push_back({"repair", timer.elapsed_seconds(), redeploy_seconds,
                       std::to_string(stats.guests_moved) + " guests moved, " +
                           std::to_string(stats.links_rerouted) +
                           " links rerouted"});
  return true;
}

double EmulationSession::simulated_seconds() const {
  double total = 0.0;
  for (const PhaseRecord& r : timeline_) total += r.simulated_seconds;
  return total;
}

std::string EmulationSession::report() const {
  std::ostringstream out;
  out << "emulation session: " << venv_.guest_count() << " guests, "
      << venv_.link_count() << " virtual links on " << cluster_.host_count()
      << " hosts; phase " << to_string(phase_) << '\n';
  util::Table table({"phase", "wall (s)", "testbed (s)", "note"});
  for (const PhaseRecord& r : timeline_) {
    table.add_row({r.phase, util::Table::fmt(r.wall_seconds, 4),
                   util::Table::fmt(r.simulated_seconds, 1), r.note});
  }
  out << table.to_string();
  if (!error_.empty()) out << "last error: " << error_ << '\n';
  return out.str();
}

std::string to_json(const std::vector<PhaseRecord>& timeline) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const PhaseRecord& r = timeline[i];
    if (i > 0) out << ',';
    out << "{\"phase\":" << io::json_string(r.phase)
        << ",\"wall_seconds\":" << io::json_number(r.wall_seconds)
        << ",\"simulated_seconds\":" << io::json_number(r.simulated_seconds)
        << ",\"note\":" << io::json_string(r.note) << '}';
  }
  out << ']';
  return out.str();
}

}  // namespace hmn::emulator
