#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.h"
#include "workload/power_domains.h"
#include "workload/venv_generator.h"

namespace hmn::workload {
namespace {

/// Exponential variate with the given mean.  log1p(-u) is finite for
/// u in [0, 1), which uniform01() guarantees.
double exponential(util::Rng& rng, double mean) {
  return -mean * std::log1p(-rng.uniform01());
}

double lifetime_draw(util::Rng& rng, const ChurnOptions& opts) {
  if (opts.lifetime == LifetimeDistribution::kExponential) {
    return exponential(rng, opts.mean_lifetime);
  }
  // Pareto with shape alpha and the scale that yields mean_lifetime:
  // E[X] = xm * alpha / (alpha - 1)  =>  xm = mean * (alpha - 1) / alpha.
  const double alpha = std::max(1.0 + 1e-9, opts.pareto_alpha);
  const double xm = opts.mean_lifetime * (alpha - 1.0) / alpha;
  return xm * std::pow(1.0 - rng.uniform01(), -1.0 / alpha);
}

int kind_rank(EventKind k) {
  switch (k) {
    case EventKind::kArrive: return 0;
    case EventKind::kGrow: return 1;
    case EventKind::kDepart: return 2;
    // Recoveries rank before failures: when a repair lands at the exact
    // instant of the element's *next* failure, the recovery belongs to the
    // earlier renewal interval and must apply first, or the stale recover
    // would resurrect the freshly dead element.  Generators keep a recover
    // strictly after its own fail, so the within-pair order is never a tie.
    case EventKind::kHostRecover: return 3;
    case EventKind::kLinkRecover: return 4;
    case EventKind::kBlastRecover: return 5;
    case EventKind::kPowerRecover: return 6;
    case EventKind::kHostFail: return 7;
    case EventKind::kLinkFail: return 8;
    case EventKind::kBlastFail: return 9;
    case EventKind::kPowerFail: return 10;
  }
  return 11;
}

}  // namespace

EventElements event_elements(const TenantEvent& ev) {
  EventElements out;
  switch (ev.kind) {
    case EventKind::kHostFail:
    case EventKind::kHostRecover:
      out.nodes.push_back(ev.element);
      break;
    case EventKind::kLinkFail:
    case EventKind::kLinkRecover:
      out.links.push_back(ev.element);
      break;
    case EventKind::kBlastFail:
    case EventKind::kBlastRecover:
      out.nodes.push_back(ev.element);
      [[fallthrough]];
    case EventKind::kPowerFail:
    case EventKind::kPowerRecover:
      out.nodes.insert(out.nodes.end(), ev.group_hosts.begin(),
                       ev.group_hosts.end());
      out.links = ev.group_links;
      break;
    case EventKind::kArrive:
    case EventKind::kGrow:
    case EventKind::kDepart:
      break;
  }
  return out;
}

bool event_before(const TenantEvent& a, const TenantEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.tenant != b.tenant) return a.tenant < b.tenant;
  if (a.kind != b.kind) return kind_rank(a.kind) < kind_rank(b.kind);
  return a.element < b.element;
}

ChurnTrace generate_churn(const ChurnOptions& opts, std::uint64_t seed) {
  ChurnTrace trace;
  trace.profile = opts.profile;
  util::Rng rng(seed);

  double now = 0.0;
  std::uint32_t key = 0;
  while (true) {
    now += exponential(rng, 1.0 / std::max(1e-12, opts.arrival_rate));
    if (now >= opts.horizon) break;

    TenantEvent arrive;
    arrive.time = now;
    arrive.kind = EventKind::kArrive;
    arrive.tenant = key;
    arrive.guest_count = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(opts.min_guests),
        static_cast<std::int64_t>(std::max(opts.min_guests, opts.max_guests))));
    arrive.density = opts.density;
    arrive.seed = util::derive_seed(seed, key, 1);
    // Tier and replica draws are short-circuited on their zero defaults so
    // legacy (opts without tiers/replicas) streams consume no extra draws
    // and replay byte-identically.
    if (opts.gold_fraction > 0.0 || opts.best_effort_fraction > 0.0) {
      const double u = rng.uniform01();
      if (u < opts.gold_fraction) {
        arrive.sla_tier = model::SlaTier::kGold;
      } else if (u < opts.gold_fraction + opts.best_effort_fraction) {
        arrive.sla_tier = model::SlaTier::kBestEffort;
      }
    }
    if (opts.replica_probability > 0.0 && opts.replica_n >= 2 &&
        rng.chance(opts.replica_probability)) {
      arrive.replica_n = std::min<std::uint32_t>(
          opts.replica_n, static_cast<std::uint32_t>(arrive.guest_count));
      arrive.replica_k = std::clamp<std::uint32_t>(opts.replica_k, 1,
                                                   arrive.replica_n);
      if (arrive.replica_n < 2) arrive.replica_n = arrive.replica_k = 0;
    }
    trace.events.push_back(arrive);

    const double life = lifetime_draw(rng, opts);

    if (rng.chance(opts.grow_probability) && opts.max_grow_guests > 0) {
      TenantEvent grow;
      grow.time = now + rng.uniform01() * life;
      grow.kind = EventKind::kGrow;
      grow.tenant = key;
      grow.add_guests = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(opts.max_grow_guests)));
      grow.add_links = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(grow.add_guests)));
      grow.seed = util::derive_seed(seed, key, 2);
      trace.events.push_back(grow);
    }

    TenantEvent depart;
    depart.time = now + life;
    depart.kind = EventKind::kDepart;
    depart.tenant = key;
    trace.events.push_back(depart);

    ++key;
  }

  std::stable_sort(trace.events.begin(), trace.events.end(), event_before);
  return trace;
}

namespace {

/// Mean-preserving time-to-failure draw.  Whatever the shape, the returned
/// variate has expectation `mean`, so sweeps over distributions compare
/// like against like.  The exponential path consumes exactly the same RNG
/// stream as before the shapes existed, keeping old seeds byte-stable.
double mttf_draw(util::Rng& rng, double mean, const FailureOptions& opts) {
  switch (opts.mttf_dist) {
    case MttfDistribution::kExponential:
      return exponential(rng, mean);
    case MttfDistribution::kWeibull: {
      // E[X] = λ Γ(1 + 1/k)  =>  λ = mean / Γ(1 + 1/k); inverse CDF is
      // λ(-ln(1-u))^{1/k}.
      const double k = std::max(1e-3, opts.weibull_shape);
      const double lambda = mean / std::tgamma(1.0 + 1.0 / k);
      return lambda * std::pow(-std::log1p(-rng.uniform01()), 1.0 / k);
    }
    case MttfDistribution::kLognormal: {
      // E[X] = exp(μ + σ²/2)  =>  μ = ln(mean) - σ²/2.
      const double sigma = std::max(0.0, opts.lognormal_sigma);
      const double mu = std::log(mean) - 0.5 * sigma * sigma;
      return std::exp(mu + sigma * rng.normal());
    }
  }
  return exponential(rng, mean);
}

/// Advances `now` by an exponential repair draw, then nudges it so the
/// recovery lands *strictly* after the failure at `fail_time`.  Without the
/// nudge a denormal-small repair draw leaves now == fail_time, and since
/// the canonical order puts recoveries first the pair would apply as
/// recover-then-fail — killing the element until the next renewal.
double repair_time(util::Rng& rng, double fail_time, double mttr) {
  double t = fail_time + exponential(rng, std::max(1e-9, mttr));
  if (t <= fail_time) {
    t = std::nextafter(fail_time, std::numeric_limits<double>::infinity());
  }
  return t;
}

}  // namespace

std::vector<TenantEvent> generate_failures(const FailureOptions& opts,
                                           const model::PhysicalCluster& cluster,
                                           std::uint64_t seed) {
  std::vector<TenantEvent> events;
  // One alternating up/down renewal process per element, each on its own
  // derived stream so the draw for element e never depends on how many
  // other elements exist.
  auto renewal = [&](double mttf, double mttr, EventKind fail,
                     EventKind recover, std::uint32_t element,
                     std::uint64_t stream) {
    if (mttf <= 0.0) return;
    util::Rng rng(stream);
    double now = 0.0;
    while (true) {
      now += mttf_draw(rng, mttf, opts);
      if (now >= opts.horizon) break;
      TenantEvent down;
      down.time = now;
      down.kind = fail;
      down.element = element;
      events.push_back(down);
      now = repair_time(rng, now, mttr);
      TenantEvent up;
      up.time = now;
      up.kind = recover;
      up.element = element;
      events.push_back(up);  // always emitted: the substrate drains too
      if (now >= opts.horizon) break;
    }
  };
  for (const NodeId h : cluster.hosts()) {
    renewal(opts.host_mttf, opts.host_mttr, EventKind::kHostFail,
            EventKind::kHostRecover, h.value(),
            util::derive_seed(seed, 1, h.value()));
  }
  for (std::size_t e = 0; e < cluster.link_count(); ++e) {
    renewal(opts.link_mttf, opts.link_mttr, EventKind::kLinkFail,
            EventKind::kLinkRecover, static_cast<std::uint32_t>(e),
            util::derive_seed(seed, 2, e));
  }

  // Correlated blasts: each switch is its own renewal process; the group
  // (adjacent hosts, every link incident to the switch or those hosts) is
  // computed once per switch and stamped on both the fail and the recover
  // so consumers and replayers apply it atomically without bookkeeping.
  if (opts.blast_mttf > 0.0) {
    const graph::Graph& g = cluster.graph();
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      const NodeId node{static_cast<NodeId::underlying_type>(n)};
      if (cluster.is_host(node)) continue;
      std::vector<std::uint32_t> hosts;
      std::vector<std::uint32_t> links;
      for (const graph::Adjacency& adj : g.neighbors(node)) {
        links.push_back(adj.edge.value());
        if (!cluster.is_host(adj.neighbor)) continue;
        hosts.push_back(adj.neighbor.value());
        for (const graph::Adjacency& leaf : g.neighbors(adj.neighbor)) {
          links.push_back(leaf.edge.value());
        }
      }
      std::sort(hosts.begin(), hosts.end());
      hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());

      util::Rng rng(util::derive_seed(seed, 3, n));
      double now = 0.0;
      while (true) {
        now += mttf_draw(rng, opts.blast_mttf, opts);
        if (now >= opts.horizon) break;
        TenantEvent down;
        down.time = now;
        down.kind = EventKind::kBlastFail;
        down.element = node.value();
        down.group_hosts = hosts;
        down.group_links = links;
        events.push_back(down);
        now = repair_time(rng, now, opts.blast_mttr);
        TenantEvent up;
        up.time = now;
        up.kind = EventKind::kBlastRecover;
        up.element = node.value();
        up.group_hosts = hosts;
        up.group_links = links;
        events.push_back(up);
        if (now >= opts.horizon) break;
      }
    }
  }
  // Power-domain outages with one-crew serialized repair.  Each domain's
  // failure instants and hands-on repair durations come from its own
  // derived stream (class 4), but a single crew works the queue: repair of
  // the next-failed domain starts at max(its failure, crew_free), FIFO by
  // failure time with ties broken by domain id.  A domain's next up-time
  // starts only once its repair completes, so the per-domain renewal
  // structure is preserved while storms stack repairs back-to-back.
  if (opts.power_mttf > 0.0 && opts.power_domains > 0) {
    struct DomainState {
      util::Rng rng;
      double next_fail = 0.0;
      std::vector<std::uint32_t> hosts;
      std::vector<std::uint32_t> links;
    };
    std::vector<DomainState> domains;
    const graph::Graph& g = cluster.graph();
    for (std::uint32_t d = 0; d < opts.power_domains; ++d) {
      DomainState ds{util::Rng(util::derive_seed(seed, 4, d)), 0.0,
                     power_domain_hosts(cluster, opts.power_domains, d),
                     {}};
      for (const std::uint32_t h : ds.hosts) {
        const NodeId node{h};
        for (const graph::Adjacency& adj : g.neighbors(node)) {
          ds.links.push_back(adj.edge.value());
        }
      }
      std::sort(ds.links.begin(), ds.links.end());
      ds.links.erase(std::unique(ds.links.begin(), ds.links.end()),
                     ds.links.end());
      ds.next_fail = mttf_draw(ds.rng, opts.power_mttf, opts);
      domains.push_back(std::move(ds));
    }

    double crew_free = 0.0;
    while (true) {
      // Earliest pending failure inside the horizon; ties by domain id.
      std::size_t pick = domains.size();
      for (std::size_t d = 0; d < domains.size(); ++d) {
        if (domains[d].hosts.empty()) continue;
        if (domains[d].next_fail >= opts.horizon) continue;
        if (pick == domains.size() ||
            domains[d].next_fail < domains[pick].next_fail) {
          pick = d;
        }
      }
      if (pick == domains.size()) break;
      DomainState& ds = domains[pick];

      TenantEvent down;
      down.time = ds.next_fail;
      down.kind = EventKind::kPowerFail;
      down.element = static_cast<std::uint32_t>(pick);
      down.group_hosts = ds.hosts;
      down.group_links = ds.links;
      events.push_back(down);

      const double start = std::max(ds.next_fail, crew_free);
      const double recover =
          repair_time(ds.rng, start, opts.power_mttr);
      crew_free = recover;
      TenantEvent up;
      up.time = recover;
      up.kind = EventKind::kPowerRecover;
      up.element = static_cast<std::uint32_t>(pick);
      up.group_hosts = ds.hosts;
      up.group_links = ds.links;
      events.push_back(up);

      ds.next_fail = recover + mttf_draw(ds.rng, opts.power_mttf, opts);
    }
  }

  std::stable_sort(events.begin(), events.end(), event_before);
  return events;
}

void merge_events(ChurnTrace& trace, std::vector<TenantEvent> extra) {
  trace.events.insert(trace.events.end(),
                      std::make_move_iterator(extra.begin()),
                      std::make_move_iterator(extra.end()));
  std::stable_sort(trace.events.begin(), trace.events.end(), event_before);
}

model::VirtualEnvironment make_event_venv(const GuestProfile& profile,
                                          const TenantEvent& ev) {
  VenvGenOptions opts;
  opts.guest_count = ev.guest_count;
  opts.density = ev.density;
  opts.profile = profile;
  util::Rng rng(ev.seed);
  model::VirtualEnvironment venv = generate_venv(opts, rng);
  venv.set_sla_tier(ev.sla_tier);
  // The replica group covers the venv's first replica_n guests — a
  // seedless structural choice, so replay needs only (replica_n,
  // replica_k) from the event.
  const std::uint32_t n = std::min<std::uint32_t>(
      ev.replica_n, static_cast<std::uint32_t>(venv.guest_count()));
  if (n >= 2 && ev.replica_k >= 1 && ev.replica_k <= n) {
    std::vector<GuestId> members;
    for (std::uint32_t i = 0; i < n; ++i) members.push_back(GuestId{i});
    venv.add_replica_group(std::move(members), ev.replica_k);
  }
  return venv;
}

model::VirtualEnvironment apply_growth(const model::VirtualEnvironment& base,
                                       const GuestProfile& profile,
                                       const TenantEvent& ev) {
  model::VirtualEnvironment grown;
  for (std::size_t g = 0; g < base.guest_count(); ++g) {
    grown.add_guest(
        base.guest(GuestId{static_cast<GuestId::underlying_type>(g)}));
  }
  for (std::size_t l = 0; l < base.link_count(); ++l) {
    const auto id = VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)};
    const auto ep = base.endpoints(id);
    grown.add_link(ep.src, ep.dst, base.link(id));
  }
  grown.set_sla_tier(base.sla_tier());
  for (const model::ReplicaGroup& rg : base.replica_groups()) {
    grown.add_replica_group(rg.members, rg.required);
  }

  util::Rng rng(ev.seed);
  auto draw_guest = [&] {
    return model::GuestRequirements{
        rng.uniform(profile.proc_mips.lo, profile.proc_mips.hi),
        rng.uniform(profile.mem_mb.lo, profile.mem_mb.hi),
        rng.uniform(profile.stor_gb.lo, profile.stor_gb.hi)};
  };
  auto draw_demand = [&] {
    // Same zero-fraction short-circuit as generate_venv: legacy profiles
    // must not consume an extra draw per link.
    return model::VirtualLinkDemand{
        rng.uniform(profile.link_bw_mbps.lo, profile.link_bw_mbps.hi),
        rng.uniform(profile.link_lat_ms.lo, profile.link_lat_ms.hi),
        profile.critical_link_fraction > 0.0 &&
            rng.chance(profile.critical_link_fraction)};
  };

  // Each new guest attaches to a uniformly chosen predecessor, so the
  // grown graph stays connected whenever the base was.
  for (std::size_t i = 0; i < ev.add_guests; ++i) {
    if (grown.guest_count() == 0) {
      grown.add_guest(draw_guest());
      continue;
    }
    const GuestId anchor{static_cast<GuestId::underlying_type>(
        rng.index(grown.guest_count()))};
    const GuestId fresh = grown.add_guest(draw_guest());
    grown.add_link(anchor, fresh, draw_demand());
  }
  for (std::size_t i = 0; i < ev.add_links && grown.guest_count() >= 2; ++i) {
    const GuestId a{
        static_cast<GuestId::underlying_type>(rng.index(grown.guest_count()))};
    GuestId b = a;
    while (b == a) {
      b = GuestId{static_cast<GuestId::underlying_type>(
          rng.index(grown.guest_count()))};
    }
    grown.add_link(a, b, draw_demand());
  }
  return grown;
}

}  // namespace hmn::workload
