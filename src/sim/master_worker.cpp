#include "sim/master_worker.h"

#include "sim/cpu_model.h"
#include "sim/engine.h"
#include "sim/network_model.h"
#include "util/rng.h"

namespace hmn::sim {

MasterWorkerResult run_master_worker(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment& venv,
                                     const core::Mapping& mapping,
                                     const MasterWorkerSpec& spec) {
  MasterWorkerResult result;
  if (venv.guest_count() == 0) return result;

  // Workers = the master's virtual-link neighbors (each with the link that
  // carries its traffic).
  struct Worker {
    GuestId guest;
    VirtLinkId link;
  };
  std::vector<Worker> workers;
  for (const VirtLinkId l : venv.links_of(spec.master)) {
    const GuestId other = venv.endpoints(l).other(spec.master);
    if (other != spec.master) workers.push_back({other, l});
  }
  result.workers = workers.size();
  result.tasks_per_worker.assign(workers.size(), 0);
  const std::size_t total_tasks =
      spec.tasks != 0 ? spec.tasks : 4 * workers.size();
  if (workers.empty() || total_tasks == 0) return result;

  Engine engine;
  const NetworkModel net(cluster, venv, mapping);
  const std::vector<double> rate =
      effective_guest_mips(cluster, venv, mapping);
  util::Rng rng(spec.seed);

  std::size_t dispatched = 0;
  std::size_t completed = 0;

  // Recursive through the event queue, as in experiment.cpp: the closure
  // reaches itself through a local captured by reference, which outlives
  // every event because engine.run() drains the queue before returning.
  std::function<void(std::size_t)> dispatch;  // -> worker index

  auto task_duration = [&](const Worker& worker) {
    const double jitter = rng.uniform(1.0 - spec.jitter_fraction,
                                      1.0 + spec.jitter_fraction);
    const double vproc = venv.guest(worker.guest).proc_mips;
    const double actual = rate[worker.guest.index()];
    const double slowdown = actual > 0.0 ? vproc / actual : 1.0;
    return spec.task_seconds * jitter * slowdown;
  };

  dispatch = [&](std::size_t w) {
    if (dispatched >= total_tasks) return;
    ++dispatched;
    const Worker& worker = workers[w];
    const double send = net.transfer_seconds(worker.link, spec.task_kb);
    const double compute = task_duration(worker);
    const double reply = net.transfer_seconds(worker.link, spec.result_kb);
    engine.schedule(send + compute + reply, [&, w] {
      ++completed;
      ++result.tasks_per_worker[w];
      dispatch(w);  // next task for the now-idle worker
    });
  };

  for (std::size_t w = 0; w < workers.size(); ++w) dispatch(w);
  result.makespan_seconds = engine.run();
  result.tasks_completed = completed;
  return result;
}

}  // namespace hmn::sim
