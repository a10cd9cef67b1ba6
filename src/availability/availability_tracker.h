// Per-host availability estimation from the observed failure history.
//
// The orchestrator feeds every node transition (fail / recover) into an
// AvailabilityTracker one node at a time — a blast or power group arrives
// as its member nodes; admission then asks "how reliable has this host
// been lately?" and biases placement away from flaky regions (ROADMAP:
// repair-aware admission).  Links carry no estimate: a link failure only
// starts the history (has_history()).
//
// The estimate is an interval-weighted EWMA of the node's up fraction:
// whenever node n transitions at time t, the elapsed interval [since_n, t]
// was spent entirely up or entirely down, and we fold that observation
// x ∈ {0, 1} in with weight α = 1 − exp(−Δt/τ):
//
//     avail_n ← (1 − α)·avail_n + α·x
//
// A long stable interval therefore dominates history (α → 1), a rapid
// flap barely moves the needle, and nodes that have never failed stay at
// exactly 1.0.  That last property is the module's core invariant:
// *until the first failure is observed the tracker is invisible* — every
// weight is 1.0, no headroom is reserved, and availability-aware admission
// is byte-identical to availability-blind admission.
//
// Determinism: updates arrive in canonical event order from a single
// thread, state is keyed by dense node index, and the arithmetic is pure
// double — identical event streams give identical trackers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hmn::availability {

/// EWMA time constant τ: intervals much longer than τ carry weight ≈ 1,
/// much shorter ones weight ≈ Δt/τ.
inline constexpr double kTau = 50.0;
/// Floor on the availability estimate, so a relentlessly dead host still
/// gets a non-zero placement weight (starvation guard: the bias is a
/// preference, never a hard filter).
inline constexpr double kFloor = 0.05;

/// One node's tracker state, exposed verbatim for checkpointing: the
/// recovery subsystem snapshots and restores trackers bit-exactly (the
/// doubles travel as IEEE-754 bit patterns), so a recovered orchestrator
/// biases admission identically to the uninterrupted run.
struct ElementSnapshot {
  double avail = 1.0;
  double since = 0.0;  // time of the last transition
  bool down = false;
  bool ever_failed = false;
};

/// The availability view the orchestrator consults at admission time:
/// one EWMA per node, plus the has_history() gate that keeps the whole
/// mechanism invisible until the substrate first misbehaves.
class AvailabilityTracker {
 public:
  explicit AvailabilityTracker(std::size_t node_count);

  /// Record a transition of `node` at time `now`.  Out-of-range nodes
  /// are ignored (a trace may describe a larger cluster), but a failure
  /// still starts the history.
  void on_node_fail(std::uint32_t node, double now);
  void on_node_recover(std::uint32_t node, double now);
  /// A link failed.  Links carry no estimate; this only starts the history.
  void on_link_fail() { has_history_ = true; }

  /// True once any failure has ever been observed.  While false, every
  /// weight is exactly 1.0 and availability-aware admission must be
  /// byte-identical to blind admission.
  [[nodiscard]] bool has_history() const { return has_history_; }

  /// Per-host placement weights in [kFloor, 1], indexed by node id: 1.0
  /// for a node that never failed, kFloor while it is down, its folded
  /// history otherwise.
  [[nodiscard]] std::vector<double> node_weights() const;

  /// Checkpoint support: the whole tracker as plain state, and its exact
  /// restoration into a tracker constructed with the same node count (a
  /// snapshot of another size leaves the nodes untouched).
  struct Snapshot {
    std::vector<ElementSnapshot> nodes;
    bool has_history = false;
  };
  [[nodiscard]] Snapshot snapshot() const { return {nodes_, has_history_}; }
  void restore(const Snapshot& snap);

 private:
  std::vector<ElementSnapshot> nodes_;
  bool has_history_ = false;
};

}  // namespace hmn::availability
