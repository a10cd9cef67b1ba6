#include "core/migration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/objective.h"

namespace hmn::core {
namespace {

/// Sum of virtual-link bandwidth between guest g and guests co-located on
/// the same host — the Migration stage's tie to the Hosting stage's
/// affinity groupings.
double colocated_bandwidth(const model::VirtualEnvironment& venv,
                           const std::vector<NodeId>& guest_host, GuestId g) {
  const NodeId home = guest_host[g.index()];
  double sum = 0.0;
  for (const VirtLinkId l : venv.links_of(g)) {
    const GuestId other = venv.endpoints(l).other(g);
    if (other != g && guest_host[other.index()] == home) {
      sum += venv.link(l).bandwidth_mbps;
    }
  }
  return sum;
}

/// The order targets are tried in: least loaded (largest residual CPU)
/// first, the lower NodeId on ties — a strict total order.
bool least_loaded_first(std::span<const double> rproc,
                        const std::vector<NodeId>& hosts, std::size_t a,
                        std::size_t b) {
  if (rproc[a] != rproc[b]) return rproc[a] > rproc[b];
  return hosts[a] < hosts[b];
}

/// The paper's victim rule for one victim `req` on host index `origin`: of
/// the other hosts, least loaded first (residual CPU descending, NodeId
/// ascending), the first that the victim fits and whose Eq. 10 after the
/// move is below `current_lbf`; hosts.size() when none is.  Writes that
/// factor to `lbf_after`.  `candidates` is scratch space.
///
/// Few hosts can pass, so the hosts are filtered first and only the
/// survivors are put in order.  Moving the victim, of CPU demand p, from o
/// to c keeps the sum of residuals, so it changes the exact variance behind
/// Eq. 10 by 2 p (p + r_o - r_c) / n, which never decreases as r_c falls
/// when p > 0 — nor does its floating-point evaluation below, every step
/// of which is monotone in r_c.  Once it exceeds the rounding margin, the
/// candidate's one-pass variance (load_balance_factor_if_moved) is at
/// least the variance behind `current_lbf`, and sqrt is monotone, so
/// `after < current_lbf` fails: the filter drops such hosts, which are
/// exactly the ones after the point where a least-loaded-first scan could
/// stop.  Hosts the victim does not fit are dropped too.  Sorting the
/// survivors by the same strict total order gives them in the full scan's
/// relative order, so the first that improves is the host it commits.
/// The margin covers two evaluations, with u = 2^-53 and s = max|r_i| + p
/// bounding every residual before and after the move.  The one-pass
/// evaluation errs by at most (3n + 3) u s^2 to first order: n u s^2 in the
/// sum of squares over n, (2n + 1) u s^2 in the squared mean, 2 u s^2 in
/// the final divide and subtraction.  `current_lbf` is the two-pass
/// stddev_population of the same residuals on the first iteration (error
/// at most (n + 3) u s^2) and the previous iteration's one-pass value on
/// later ones, computed on exactly today's residuals (state.place and
/// state.remove round the moved entries as that evaluation did).  Rounding
/// the two moved entries and evaluating the change itself add at most
/// 22 u s^2 / n.  The total is below (3n + 14) eps s^2 with eps = 2u; the
/// margin 16 (n + 8) eps s^2 covers it more than five times over, so the
/// filter never drops a move the full scan would commit.  An overflowing
/// s^2 gives an infinite margin and drops no host.  With p <= 0 the change
/// is not monotone and only the fit test filters.
// hmn-lint: hot-path
std::size_t first_improving_target(const ResidualState& state,
                                   std::span<const double> rproc,
                                   std::size_t origin,
                                   const model::GuestRequirements& req,
                                   double current_lbf,
                                   std::vector<std::size_t>& candidates,
                                   double& lbf_after) {
  const auto& hosts = state.cluster().hosts();
  const double p = req.proc_mips;
  const auto n = static_cast<double>(rproc.size());
  double s = 0.0;
  for (const double r : rproc) s = std::max(s, std::abs(r));
  s += p;
  const double margin =
      16.0 * (n + 8.0) * std::numeric_limits<double>::epsilon() * s * s;
  candidates.clear();
  for (std::size_t cand = 0; cand < hosts.size(); ++cand) {
    if (cand == origin) continue;
    if (p > 0.0 && 2.0 * p * (p + rproc[origin] - rproc[cand]) / n > margin) {
      continue;
    }
    if (state.fits(req, hosts[cand])) candidates.push_back(cand);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return least_loaded_first(rproc, hosts, a, b);
            });
  for (const std::size_t cand : candidates) {
    const double after =
        load_balance_factor_if_moved(rproc, origin, cand, p);
    if (after < current_lbf) {
      lbf_after = after;
      return cand;
    }
  }
  return hosts.size();
}

}  // namespace

MigrationResult run_migration(const model::VirtualEnvironment& venv,
                              ResidualState& state,
                              std::vector<NodeId>& guest_host,
                              const MigrationOptions& opts) {
  MigrationResult result;
  const auto& hosts = state.cluster().hosts();
  result.initial_lbf = load_balance_factor(state);
  result.final_lbf = result.initial_lbf;
  if (hosts.size() < 2) return result;

  // host_index[node] = position of the node in the hosts() vector, which is
  // also its index in the rproc vector the objective runs over.
  std::vector<std::size_t> host_index(state.cluster().node_count(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    host_index[hosts[i].index()] = i;
  }

  // guests_on[host position] = guests currently assigned there.
  std::vector<std::vector<GuestId>> guests_on(hosts.size());
  for (std::size_t gi = 0; gi < guest_host.size(); ++gi) {
    guests_on[host_index[guest_host[gi].index()]].push_back(
        GuestId{static_cast<GuestId::underlying_type>(gi)});
  }

  double current_lbf = result.initial_lbf;
  std::vector<std::size_t> candidates;
  candidates.reserve(hosts.size());
  for (;;) {
    if (opts.max_migrations != 0 && result.migrations >= opts.max_migrations) {
      break;
    }
    std::vector<double> rproc = state.residual_proc_of_hosts();

    // Most-loaded host = smallest residual CPU, among hosts with guests.
    std::size_t origin = hosts.size();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (guests_on[i].empty()) continue;
      if (origin == hosts.size() || rproc[i] < rproc[origin]) origin = i;
    }
    if (origin == hosts.size()) break;  // nothing mapped anywhere

    GuestId victim = GuestId::invalid();
    std::size_t target = hosts.size();
    double lbf_after = current_lbf;

    if (opts.victim == VictimPolicy::kMinColocatedBandwidth) {
      // The paper's rule: one candidate guest — smallest co-located
      // bandwidth sum (ties: lowest id) — moved to the first improving,
      // fitting host in least-loaded order.
      double best_sum = std::numeric_limits<double>::infinity();
      for (const GuestId g : guests_on[origin]) {
        const double s = colocated_bandwidth(venv, guest_host, g);
        if (s < best_sum ||
            // hmn-lint: allow(float-eq, deterministic victim tie-break on exact equal sums; epsilon would make the winner order-dependent)
            (s == best_sum && (!victim.valid() || g < victim))) {
          best_sum = s;
          victim = g;
        }
      }
      target = first_improving_target(state, rproc, origin,
                                      venv.guest(victim), current_lbf,
                                      candidates, lbf_after);
    } else {
      // kBestImprovement: exhaustive over (guest, target) in least-loaded
      // order; commit the steepest descent step.
      std::vector<std::size_t> order(hosts.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return least_loaded_first(rproc, hosts, a, b);
      });
      for (const GuestId g : guests_on[origin]) {
        const model::GuestRequirements& req = venv.guest(g);
        for (const std::size_t cand : order) {
          if (cand == origin) continue;
          const double after = load_balance_factor_if_moved(
              rproc, origin, cand, req.proc_mips);
          if (after < lbf_after && state.fits(req, hosts[cand])) {
            victim = g;
            target = cand;
            lbf_after = after;
          }
        }
      }
    }

    if (target == hosts.size()) break;  // no improving move: stage ends
    const model::GuestRequirements& req = venv.guest(victim);
    state.remove(req, hosts[origin]);
    state.place(req, hosts[target]);
    guest_host[victim.index()] = hosts[target];
    auto& src = guests_on[origin];
    src.erase(std::find(src.begin(), src.end(), victim));
    guests_on[target].push_back(victim);
    current_lbf = lbf_after;
    ++result.migrations;
  }

  result.final_lbf = current_lbf;
  return result;
}

}  // namespace hmn::core
