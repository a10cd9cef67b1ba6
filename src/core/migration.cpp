#include "core/migration.h"

#include <algorithm>
#include <cassert>
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

/// Eq. 10's change, in closed form, for the moves off one origin host, and
/// the rounding margin that makes it a sound filter before the O(n)
/// load_balance_factor_if_moved.  Both victim policies filter with it.
///
/// Moving a guest of CPU demand p from origin o to host c keeps the sum of
/// residuals, so it changes the exact population variance of the residuals
/// by d = 2 p (p + r_o - r_c) / n, which costs O(1).  Let u = 2^-53,
/// eps = 2u, and s = max|r_i| + max|p| over the guests whose moves are
/// tested, which bounds every residual before and after any of those
/// moves.  The one-pass evaluation A errs from the exact variance of the
/// values it sums by at most (3n + 3) u s^2 to first order: n u s^2 in the
/// sum of squares over n, (2n + 1) u s^2 in the squared mean, 2 u s^2 in
/// the final divide and subtraction.  Rounding the two moved entries and
/// evaluating d add at most 22 u s^2 / n, so |A - V - d| <= E with
/// E = (3n + 3) u s^2 + 22 u s^2 / n, where V is the exact variance of
/// today's residuals.  The margin is M = 16 (n + 8) eps s^2.
///
/// *Above M a move cannot improve.*  `current_lbf` is the two-pass
/// stddev_population of today's residuals on the first iteration (error at
/// most (n + 3) u s^2) and the previous iteration's one-pass value on later
/// ones, computed on exactly today's residuals (state.place and
/// state.remove round the moved entries as that evaluation did).  The two
/// errors sum to below (3n + 14) eps s^2, which M covers more than five
/// times over, so d > M gives an A at least the variance behind
/// `current_lbf`; sqrt is monotone, so `after < current_lbf` fails.
///
/// *Far above the best move, a move cannot be the best.*  Let d* be the
/// smallest d of the fitting moves with d <= M, and X such a move.  A move
/// Y with d > d* + 2M has A(Y) - A(X) > 2M - 2E > 29 (n + 8) eps s^2.  Every
/// A is below s^2 (1 + n eps), so the gap between the square roots exceeds
/// 14 (n + 8) eps s, while the two roundings of sqrt lose at most eps s;
/// and A(X) >= -E, so when A(X) is clamped to 0, A(Y) > 0 and Y's factor
/// is positive.  Either way Y's factor is strictly above X's: Y is never
/// the first minimum a best-improvement scan ends on.
///
/// The bounds assume no overflow and no harmful underflow.  M is infinite,
/// and nothing is dropped, unless s^2 is a normal double (an underflowing
/// operation then errs by at most u s^2, inside the slack) and
/// 16 (n + 8) s^2 is finite (every sum of squares and every d is then
/// finite too).  A move is dropped only when its d and M are both finite:
/// a NaN d, which a NaN demand gives, is kept, and its NaN factor never
/// improves, as in the full scan.
class MoveFilter {
 public:
  /// `max_demand` bounds |p| over every guest whose moves are tested.
  MoveFilter(std::span<const double> rproc, std::size_t origin,
             double max_demand)
      : n_(static_cast<double>(rproc.size())), r_origin_(rproc[origin]) {
    double s = 0.0;
    for (const double r : rproc) s = std::max(s, std::abs(r));
    s += max_demand;
    const double scaled = 16.0 * (n_ + 8.0) * s * s;
    if (std::isnormal(s * s) && std::isfinite(scaled)) {
      margin_ = scaled * std::numeric_limits<double>::epsilon();
    }
  }

  /// d for a guest of CPU demand `p` moved to a host of residual `r_cand`.
  [[nodiscard]] double change(double p, double r_cand) const {
    return 2.0 * p * (p + r_origin_ - r_cand) / n_;
  }
  /// M, or infinity when the bounds above do not hold.
  [[nodiscard]] double margin() const { return margin_; }
  /// True when a move of change `d` may be skipped against `limit` (M, or
  /// d* + 2M): d and M are finite and d exceeds the limit.
  [[nodiscard]] bool drops(double d, double limit) const {
    return std::isfinite(margin_) && std::isfinite(d) && d > limit;
  }

 private:
  double n_;
  double r_origin_;
  double margin_ = std::numeric_limits<double>::infinity();
};

/// The paper's victim rule for one victim `req` on host index `origin`: of
/// the other hosts, least loaded first (residual CPU descending, NodeId
/// ascending), the first that the victim fits and whose Eq. 10 after the
/// move is below `current_lbf`; hosts.size() when none is.  Writes that
/// factor to `lbf_after`.  `candidates` is scratch space.
///
/// Few hosts can pass, so the hosts are filtered first and only the
/// survivors are put in order: MoveFilter drops the hosts with d > M,
/// which cannot improve, and the fit test the hosts the victim does not
/// fit.  Sorting the survivors by the same strict total order gives them
/// in the full scan's relative order, so the first that improves is the
/// host the full scan commits.
// hmn-lint: hot-path
std::size_t first_improving_target(const ResidualState& state,
                                   std::span<const double> rproc,
                                   std::size_t origin,
                                   const model::GuestRequirements& req,
                                   double current_lbf,
                                   std::vector<std::size_t>& candidates,
                                   double& lbf_after) {
  const auto& hosts = state.hosts();
  const double p = req.proc_mips;
  const MoveFilter filter(rproc, origin, std::abs(p));
  candidates.clear();
  for (std::size_t cand = 0; cand < hosts.size(); ++cand) {
    if (cand == origin) continue;
    if (filter.drops(filter.change(p, rproc[cand]), filter.margin())) {
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

/// One fitting move in kBestImprovement's scan.
struct Move {
  std::size_t guest = 0;  // position in the origin's guest list
  std::size_t host = 0;   // host index
  double change = 0.0;    // MoveFilter::change
};

/// kBestImprovement for the guests on host index `origin`: of every move
/// of one of them to another host it fits, the one with the smallest
/// Eq. 10 after the move, if that is below `lbf_after` (the current factor
/// on entry); among equal factors, the first in the full scan's order,
/// which takes the guests in `guests` order and, for each, the hosts least
/// loaded first, NodeId on ties.  Writes the move to `victim` and `target`
/// and its factor to `lbf_after`, and leaves all three when no move
/// improves.  `moves` is scratch space.
///
/// Only the moves whose O(n) evaluation can decide the result pay for it:
/// MoveFilter drops those with d > M, which cannot improve, and those with
/// d > d* + 2M, whose factor is above another fitting move's.  The rest
/// are evaluated in the full scan's relative order under the same strict
/// `after < lbf_after` rule, so the move committed is the full scan's.
// hmn-lint: hot-path
void best_improving_move(const model::VirtualEnvironment& venv,
                         const ResidualState& state,
                         std::span<const double> rproc, std::size_t origin,
                         std::span<const GuestId> guests,
                         std::vector<Move>& moves, GuestId& victim,
                         std::size_t& target, double& lbf_after) {
  const auto& hosts = state.hosts();
  double max_demand = 0.0;
  for (const GuestId g : guests) {
    max_demand = std::max(max_demand, std::abs(venv.guest(g).proc_mips));
  }
  const MoveFilter filter(rproc, origin, max_demand);
  moves.clear();
  double best_change = std::numeric_limits<double>::infinity();  // d*
  for (std::size_t k = 0; k < guests.size(); ++k) {
    const model::GuestRequirements& req = venv.guest(guests[k]);
    for (std::size_t cand = 0; cand < hosts.size(); ++cand) {
      if (cand == origin || !state.fits(req, hosts[cand])) continue;
      const double d = filter.change(req.proc_mips, rproc[cand]);
      if (filter.drops(d, filter.margin())) continue;
      moves.push_back({k, cand, d});
      best_change = std::min(best_change, d);
    }
  }
  const double cutoff = best_change + 2.0 * filter.margin();
  std::erase_if(moves,
                [&](const Move& m) { return filter.drops(m.change, cutoff); });
  std::sort(moves.begin(), moves.end(), [&](const Move& a, const Move& b) {
    if (a.guest != b.guest) return a.guest < b.guest;
    return least_loaded_first(rproc, hosts, a.host, b.host);
  });
  for (const Move& m : moves) {
    const double after = load_balance_factor_if_moved(
        rproc, origin, m.host, venv.guest(guests[m.guest]).proc_mips);
    if (after < lbf_after) {
      victim = guests[m.guest];
      target = m.host;
      lbf_after = after;
    }
  }
}

}  // namespace

MigrationResult run_migration(const model::VirtualEnvironment& venv,
                              ResidualState& state,
                              std::vector<NodeId>& guest_host,
                              const MigrationOptions& opts) {
  MigrationResult result;
  const auto& hosts = state.hosts();
  // Residual CPU per host position, the vector Eq. 10 runs over; a move
  // changes only its two entries.
  std::vector<double> rproc = state.residual_proc_of_hosts();
  result.initial_lbf = load_balance_factor(rproc);
  result.final_lbf = result.initial_lbf;
  if (hosts.size() < 2) return result;

  // guests_on[host position] = guests currently assigned there.  hosts()
  // ascends, so a binary search finds each guest's position without a
  // table sized by the cluster.
  std::vector<std::vector<GuestId>> guests_on(hosts.size());
  for (std::size_t gi = 0; gi < guest_host.size(); ++gi) {
    const auto at =
        std::lower_bound(hosts.begin(), hosts.end(), guest_host[gi]);
    assert(at != hosts.end() && *at == guest_host[gi]);
    guests_on[static_cast<std::size_t>(at - hosts.begin())].push_back(
        GuestId{static_cast<GuestId::underlying_type>(gi)});
  }

  double current_lbf = result.initial_lbf;
  std::vector<std::size_t> candidates;
  candidates.reserve(hosts.size());
  std::vector<Move> moves;
  for (;;) {
    if (opts.max_migrations != 0 && result.migrations >= opts.max_migrations) {
      break;
    }

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
      best_improving_move(venv, state, rproc, origin, guests_on[origin],
                          moves, victim, target, lbf_after);
    }

    if (target == hosts.size()) break;  // no improving move: stage ends
    const model::GuestRequirements& req = venv.guest(victim);
    state.remove(req, hosts[origin]);
    state.place(req, hosts[target]);
    rproc[origin] = state.residual_proc(hosts[origin]);
    rproc[target] = state.residual_proc(hosts[target]);
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
