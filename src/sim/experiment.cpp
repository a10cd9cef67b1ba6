#include "sim/experiment.h"

#include <vector>

#include "sim/cpu_model.h"
#include "sim/engine.h"
#include "sim/network_model.h"
#include "util/rng.h"

namespace hmn::sim {
namespace {

/// Per-guest BSP progress tracking.
struct GuestState {
  std::size_t iteration = 0;       // current iteration, [0, spec.iterations)
  bool compute_done = false;       // this iteration's compute finished
  std::vector<std::uint32_t> arrived;  // messages received, per iteration
  std::size_t expected = 0;        // neighbor count (messages per iteration)
  bool finished = false;
  double finish_time = 0.0;
};

}  // namespace

ExperimentResult run_experiment(const model::PhysicalCluster& cluster,
                                const model::VirtualEnvironment& venv,
                                const core::Mapping& mapping,
                                const ExperimentSpec& spec) {
  ExperimentResult result;
  const std::size_t n = venv.guest_count();
  if (n == 0 || spec.iterations == 0) return result;

  Engine engine;
  const NetworkModel net(cluster, venv, mapping);
  const std::vector<double> rate = effective_guest_mips(cluster, venv, mapping);

  // Per-guest work: spec.compute_seconds at the requested rate, jittered.
  util::Rng rng(spec.seed);
  std::vector<double> compute_time(n);
  for (std::size_t g = 0; g < n; ++g) {
    const double jitter =
        rng.uniform(1.0 - spec.jitter_fraction, 1.0 + spec.jitter_fraction);
    const auto id = GuestId{static_cast<GuestId::underlying_type>(g)};
    const double vproc = venv.guest(id).proc_mips;
    // Work in "MI" = compute_seconds * vproc; duration = work / actual rate.
    const double slowdown = rate[g] > 0.0 ? vproc / rate[g] : 1.0;
    compute_time[g] = spec.compute_seconds * jitter * slowdown;
  }

  std::vector<GuestState> state(n);
  for (std::size_t g = 0; g < n; ++g) {
    const auto id = GuestId{static_cast<GuestId::underlying_type>(g)};
    state[g].expected = venv.links_of(id).size();
    state[g].arrived.assign(spec.iterations, 0);
  }

  std::uint64_t messages = 0;

  // Forward declaration dance: the three closures are mutually recursive
  // through the event queue, so they live in one local struct that every
  // closure captures by reference.  engine.run() drains every event before
  // this function returns, so no closure outlives the struct.
  struct Hooks {
    std::function<void(std::size_t)> start_iteration;
    std::function<void(std::size_t)> on_compute_done;
    std::function<void(std::size_t)> try_advance;
  };
  Hooks hooks;

  hooks.start_iteration = [&](std::size_t g) {
    engine.schedule(compute_time[g], [g, &hooks] { hooks.on_compute_done(g); });
  };

  hooks.on_compute_done = [&](std::size_t g) {
    GuestState& st = state[g];
    st.compute_done = true;
    // Send this iteration's message to every neighbor.
    const auto id = GuestId{static_cast<GuestId::underlying_type>(g)};
    const std::size_t iter = st.iteration;
    for (const VirtLinkId l : venv.links_of(id)) {
      const GuestId peer = venv.endpoints(l).other(id);
      const double delay = net.transfer_seconds(l, spec.message_kb);
      const std::size_t peer_idx = peer.index();
      engine.schedule(delay, [&, peer_idx, iter] {
        ++messages;
        if (iter < state[peer_idx].arrived.size()) {
          ++state[peer_idx].arrived[iter];
        }
        hooks.try_advance(peer_idx);
      });
    }
    hooks.try_advance(g);
  };

  hooks.try_advance = [&](std::size_t g) {
    GuestState& st = state[g];
    if (st.finished || !st.compute_done) return;
    if (st.arrived[st.iteration] < st.expected) return;
    // Iteration barrier passed.
    ++st.iteration;
    st.compute_done = false;
    if (st.iteration >= spec.iterations) {
      st.finished = true;
      st.finish_time = engine.now();
      return;
    }
    hooks.start_iteration(g);
  };

  for (std::size_t g = 0; g < n; ++g) hooks.start_iteration(g);
  result.makespan_seconds = engine.run();
  result.events_processed = engine.events_processed();
  result.messages_delivered = messages;
  double sum = 0.0;
  result.guest_finish_seconds.reserve(n);
  for (const GuestState& st : state) {
    sum += st.finish_time;
    result.guest_finish_seconds.push_back(st.finish_time);
  }
  result.mean_guest_seconds = sum / static_cast<double>(n);
  return result;
}

GuestId straggler(const ExperimentResult& result) {
  if (result.guest_finish_seconds.empty()) return GuestId::invalid();
  std::size_t best = 0;
  for (std::size_t g = 1; g < result.guest_finish_seconds.size(); ++g) {
    if (result.guest_finish_seconds[g] > result.guest_finish_seconds[best]) {
      best = g;
    }
  }
  return GuestId{static_cast<GuestId::underlying_type>(best)};
}

}  // namespace hmn::sim
