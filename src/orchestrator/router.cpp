#include "orchestrator/router.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/mapping.h"
#include "extensions/replica_spread.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hmn::orchestrator {

struct PlacementRouter::ShardState {
  std::size_t index = 0;
  const topology::ClusterShard* shard = nullptr;  // owned by partition_
  emulator::TenancyManager mgr;
  std::mutex mutex;
  double headroom = 0.0;

  ShardState(std::size_t i, const topology::ClusterShard& sh,
             extensions::HeuristicPool pool)
      : index(i), shard(&sh), mgr(sh.cluster, std::move(pool)) {}
};

namespace {

/// Admission-latency histogram layout.  Shard-local admissions sit well
/// under a millisecond, and E14's p99 gate needs resolution there.
constexpr double kLatencyUpperUs = 2e5;
constexpr std::size_t kLatencyBuckets = 4096;

}  // namespace

PlacementRouter::~PlacementRouter() = default;

PlacementRouter::PlacementRouter(const model::PhysicalCluster& fabric,
                                 RouterOptions opts)
    : PlacementRouter(fabric, opts,
                      [] { return extensions::default_pool(); }) {}

PlacementRouter::PlacementRouter(const model::PhysicalCluster& fabric,
                                 RouterOptions opts,
                                 const PoolFactory& make_pool)
    : opts_(opts),
      partition_(topology::partition_cluster(
          fabric, opts.shards == 0 ? 1 : opts.shards)),
      latency_(kLatencyUpperUs, kLatencyBuckets) {
  shards_.reserve(partition_.shard_count());
  for (std::size_t s = 0; s < partition_.shard_count(); ++s) {
    extensions::HeuristicPool pool = make_pool();
    const topology::ClusterShard& sh = partition_.shards[s];
    if (opts_.multilevel_min_hosts > 0 &&
        sh.cluster.host_count() >= opts_.multilevel_min_hosts) {
      // Large shard: front the pool with the multilevel mapper, prebuilding
      // the structural hierarchy once — TenancyManager hands the mapper a
      // fresh residual-view cluster per admission, which stays compatible()
      // with the prebuilt levels, so only capacities re-aggregate per call.
      multilevel::MultilevelOptions mo = opts_.multilevel;
      mo.min_hosts = opts_.multilevel_min_hosts;
      auto hier = std::make_shared<const multilevel::PhysicalHierarchy>(
          multilevel::build_hierarchy(sh.cluster, mo.phys));
      pool.add_front(std::make_unique<multilevel::MultilevelMapper>(
          std::move(mo), std::move(hier)));
    }
    if (opts_.replica_spread) {
      // Anti-affinity post-pass over every chain entry (multilevel mapper
      // included): spread k-of-n replica groups across the shard's failure
      // domains.  No-op unless the shard cluster is domain-annotated and
      // the tenant declares groups.
      pool = extensions::replica_aware(std::move(pool));
    }
    shards_.push_back(std::make_unique<ShardState>(s, sh, std::move(pool)));
    refresh_headroom(s);
  }
  if (opts_.threads > 1) {
    // The caller is one of the threads (admit_batch); never pass 0, which
    // ThreadPool reads as the hardware concurrency.
    pool_ = std::make_unique<util::ThreadPool>(opts_.threads - 1);
  }
}

const emulator::TenancyManager& PlacementRouter::shard_manager(
    std::size_t s) const {
  return shards_[s]->mgr;
}

const topology::ClusterShard& PlacementRouter::shard(std::size_t s) const {
  return partition_.shards[s];
}

std::size_t PlacementRouter::tenant_count() const {
  std::size_t total = 0;
  for (const auto& st : shards_) total += st->mgr.tenant_count();
  return total;
}

double PlacementRouter::headroom(std::size_t s) const {
  return shards_[s]->headroom;
}

void PlacementRouter::refresh_headroom(std::size_t s) {
  ShardState& st = *shards_[s];
  std::lock_guard lock(st.mutex);
  st.headroom = st.mgr.residual_host_proc_sum();
}

// Scoring runs once per admission batch entry; probe vectors stay reserved.
// hmn-lint: hot-path
std::vector<std::size_t> PlacementRouter::try_order(
    const std::vector<double>& headroom_snapshot, std::uint64_t seed) const {
  const std::size_t k = shards_.size();
  auto better = [&](std::size_t a, std::size_t b) {
    if (headroom_snapshot[a] != headroom_snapshot[b]) {
      return headroom_snapshot[a] > headroom_snapshot[b];
    }
    return a < b;  // deterministic tie-break
  };

  util::Rng rng(seed);
  const std::size_t probes =
      std::min(std::max<std::size_t>(1, opts_.probe_choices), k);
  std::vector<std::size_t> order;
  order.reserve(opts_.exhaustive_fallback ? k : probes);
  while (order.size() < probes) {
    const std::size_t c = rng.index(k);
    if (std::find(order.begin(), order.end(), c) == order.end()) {
      order.push_back(c);
    }
  }
  // The P2C winner leads; losing probes follow, still by score.
  std::sort(order.begin(), order.end(), better);
  if (opts_.exhaustive_fallback) {
    std::vector<std::size_t> rest;
    rest.reserve(k - probes);
    for (std::size_t s = 0; s < k; ++s) {
      if (std::find(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(
                                       probes),
                    s) == order.begin() + static_cast<std::ptrdiff_t>(probes)) {
        rest.push_back(s);
      }
    }
    std::sort(rest.begin(), rest.end(), better);
    order.insert(order.end(), rest.begin(), rest.end());
  }
  return order;
}

std::vector<RouterDecision> PlacementRouter::admit_batch(
    const std::vector<AdmissionRequest>& batch, std::uint64_t batch_seed) {
  const std::size_t n = batch.size();
  std::vector<RouterDecision> decisions(n);
  if (n == 0) return decisions;

  // Headroom snapshot and per-request try-orders, resolved serially before
  // any admission: the scores every request routes on are those at batch
  // start, independent of intra-batch completion order.
  std::vector<double> snapshot(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snapshot[s] = shards_[s]->headroom;
  }

  std::vector<std::vector<std::size_t>> order(n);
  std::vector<emulator::TenantId> admitted_id(n);
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    decisions[i].key = batch[i].key;
    if (placements_.count(batch[i].key) != 0 ||
        std::any_of(batch.begin(),
                    batch.begin() + static_cast<std::ptrdiff_t>(i),
                    [&](const AdmissionRequest& r) {
                      return r.key == batch[i].key;
                    })) {
      decisions[i].error = core::MapErrorCode::kInvalidInput;  // dup key
      continue;
    }
    order[i] = try_order(snapshot, util::derive_seed(batch_seed, i));
    pending.push_back(i);
  }

  const std::size_t max_attempts =
      pending.empty() ? 0 : order[pending.front()].size();
  for (std::size_t attempt = 0;
       attempt < max_attempts && !pending.empty(); ++attempt) {
    // Round r: every still-pending request goes to its r-th choice.
    // Groups are built by one ascending scan, so each shard sees its
    // requests in request order — the property that makes the decision
    // log independent of the thread count.
    std::vector<std::vector<std::size_t>> per_shard(shards_.size());
    for (const std::size_t i : pending) {
      per_shard[order[i][attempt]].push_back(i);
    }

    auto run_shard = [&](std::size_t s) {
      const auto& list = per_shard[s];
      if (list.empty()) return;
      ShardState& st = *shards_[s];
      std::lock_guard lock(st.mutex);
      for (const std::size_t i : list) {
        const AdmissionRequest& req = batch[i];
        util::Timer timer;
        auto res = st.mgr.admit("t" + std::to_string(req.key), req.venv,
                                util::derive_seed(req.seed, s));
        decisions[i].latency_us += timer.elapsed_us();
        decisions[i].attempts = static_cast<std::uint32_t>(attempt + 1);
        if (res.ok()) {
          decisions[i].admitted = true;
          decisions[i].shard = static_cast<std::int32_t>(s);
          admitted_id[i] = *res.tenant;
          // Hashed over parent-fabric host ids, as core::placement_hash
          // documents.
          const auto& local = st.mgr.tenant(*res.tenant)->mapping.guest_host;
          std::vector<NodeId> parent(local.size());
          std::transform(local.begin(), local.end(), parent.begin(),
                         [&](NodeId h) { return st.shard->parent_node(h); });
          decisions[i].placement_hash = core::placement_hash(parent);
        } else {
          decisions[i].error = res.error;
        }
      }
    };

    // The caller admits the round's first busy shard itself and the pool
    // takes the rest: most rounds have one busy shard, so most run with no
    // hand-off at all.  The pool's tasks hold references into this frame,
    // so they are joined before anything leaves it, an exception included.
    std::size_t own = 0;
    while (per_shard[own].empty()) ++own;  // `pending` is not empty
    try {
      for (std::size_t s = own + 1; pool_ != nullptr && s < shards_.size();
           ++s) {
        if (!per_shard[s].empty()) {
          pool_->submit([&run_shard, s] { run_shard(s); });
        }
      }
      run_shard(own);
    } catch (...) {
      if (pool_ != nullptr) pool_->wait_idle();
      throw;
    }
    if (pool_ != nullptr) {
      pool_->wait_idle();
    } else {
      for (std::size_t s = own + 1; s < shards_.size(); ++s) run_shard(s);
    }

    std::vector<std::size_t> still;
    still.reserve(pending.size());
    for (const std::size_t i : pending) {
      if (!decisions[i].admitted) still.push_back(i);
    }
    pending = std::move(still);
  }

  // Serial epilogue: registry, log, latency accounting, fresh headroom.
  // A rejected admission commits nothing, so only the shards that admitted
  // a request have a new headroom.
  std::vector<bool> changed(shards_.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    if (decisions[i].admitted) {
      const auto s = static_cast<std::size_t>(decisions[i].shard);
      placements_[batch[i].key] = {s, admitted_id[i]};
      changed[s] = true;
    }
    latency_.add(decisions[i].latency_us);
    log_.push_back(decisions[i]);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (changed[s]) refresh_headroom(s);
  }
  return decisions;
}

RouterDecision PlacementRouter::admit(AdmissionRequest request,
                                      std::uint64_t batch_seed) {
  std::vector<AdmissionRequest> batch;
  batch.push_back(std::move(request));
  return admit_batch(batch, batch_seed).front();
}

bool PlacementRouter::release(std::uint32_t key) {
  const auto it = placements_.find(key);
  if (it == placements_.end()) return false;
  const std::size_t s = it->second.shard;
  {
    ShardState& st = *shards_[s];
    std::lock_guard lock(st.mutex);
    st.mgr.release(it->second.tenant);
  }
  refresh_headroom(s);
  placements_.erase(it);
  return true;
}

std::string PlacementRouter::decision_signature() const {
  std::ostringstream out;
  char buf[96];
  for (const RouterDecision& d : log_) {
    std::snprintf(buf, sizeof(buf), "%u|%d|%d|%u|%d|%016" PRIx64 ";", d.key,
                  d.admitted ? 1 : 0, d.shard, d.attempts,
                  static_cast<int>(d.error), d.placement_hash);
    out << buf;
  }
  return out.str();
}

}  // namespace hmn::orchestrator
