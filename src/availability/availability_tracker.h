// Per-element availability estimation from the observed failure history.
//
// The orchestrator feeds every substrate transition (fail / recover) into
// an AvailabilityTracker one node or link at a time — a blast or power
// group arrives as its member elements; admission then asks "how reliable
// has this element been lately?" and biases placement away from flaky
// regions (ROADMAP: repair-aware admission).
//
// The estimate is an interval-weighted EWMA of the element's up fraction:
// whenever element e transitions at time t, the elapsed interval
// [since_e, t] was spent entirely up or entirely down, and we fold that
// observation x ∈ {0, 1} in with weight α = 1 − exp(−Δt/τ):
//
//     avail_e ← (1 − α)·avail_e + α·x
//
// A long stable interval therefore dominates history (α → 1), a rapid
// flap barely moves the needle, and elements that have never failed stay
// at exactly 1.0.  That last property is the module's core invariant:
// *until the first failure is observed the tracker is invisible* — every
// weight is 1.0, no headroom is reserved, and availability-aware admission
// is byte-identical to availability-blind admission.
//
// Determinism: updates arrive in canonical event order from a single
// thread, state is keyed by dense element index, and the arithmetic is
// pure double — identical event streams give identical trackers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hmn::availability {

struct AvailabilityOptions {
  /// EWMA time constant: intervals much longer than tau carry weight ≈ 1,
  /// much shorter ones weight ≈ Δt/tau.
  double tau = 50.0;
  /// Floor on the availability estimate, so a relentlessly dead element
  /// still gets a non-zero placement weight (starvation guard: the bias is
  /// a preference, never a hard filter).
  double floor = 0.05;
};

/// One element's tracker state, exposed verbatim for checkpointing: the
/// recovery subsystem snapshots and restores trackers bit-exactly (the
/// doubles travel as IEEE-754 bit patterns), so a recovered orchestrator
/// biases admission identically to the uninterrupted run.
struct ElementSnapshot {
  double avail = 1.0;
  double since = 0.0;
  bool down = false;
  bool ever_failed = false;
};

/// Tracks up/down state and EWMA availability per element of one class
/// (nodes or edges — the owner keeps one tracker per class).
class ClassTracker {
 public:
  ClassTracker() = default;
  explicit ClassTracker(std::size_t count, AvailabilityOptions opts);

  /// Records a transition of `element` at time `now`.  Out-of-range
  /// elements are ignored (a trace may describe a larger cluster).
  void on_fail(std::uint32_t element, double now);
  void on_recover(std::uint32_t element, double now);

  /// EWMA availability in [floor, 1]; exactly 1.0 until the element's
  /// first observed failure.
  [[nodiscard]] double availability(std::uint32_t element) const;

  [[nodiscard]] bool is_down(std::uint32_t element) const;
  [[nodiscard]] std::size_t size() const { return state_.size(); }

  /// Checkpoint support: element states in index order, and their exact
  /// restoration.  restore() requires the same element count the tracker
  /// was constructed with.
  [[nodiscard]] std::vector<ElementSnapshot> snapshot() const;
  void restore(const std::vector<ElementSnapshot>& states);

 private:
  struct ElementState {
    double avail = 1.0;
    double since = 0.0;  // time of the last transition
    bool down = false;
    bool ever_failed = false;
  };

  void fold_interval(ElementState& st, double now, bool was_up);

  std::vector<ElementState> state_;
  AvailabilityOptions opts_;
};

/// The availability view the orchestrator consults at admission time:
/// one ClassTracker for nodes and one for physical links, plus the
/// has_history() gate that keeps the whole mechanism invisible until the
/// substrate first misbehaves.
class AvailabilityTracker {
 public:
  AvailabilityTracker() = default;
  AvailabilityTracker(std::size_t node_count, std::size_t link_count,
                      AvailabilityOptions opts = {});

  void on_node_fail(std::uint32_t node, double now);
  void on_node_recover(std::uint32_t node, double now);
  void on_link_fail(std::uint32_t link, double now);
  void on_link_recover(std::uint32_t link, double now);

  [[nodiscard]] double node_availability(std::uint32_t node) const {
    return nodes_.availability(node);
  }
  [[nodiscard]] double link_availability(std::uint32_t link) const {
    return links_.availability(link);
  }

  /// True once any failure has ever been observed.  While false, every
  /// availability is exactly 1.0 and availability-aware admission must be
  /// byte-identical to blind admission.
  [[nodiscard]] bool has_history() const { return has_history_; }

  /// Per-host placement weights (availability of the host node), indexed
  /// by node id.  All-1.0 before the first failure.
  [[nodiscard]] std::vector<double> node_weights() const;

  /// Checkpoint support (see ClassTracker::snapshot): the whole tracker as
  /// plain state, and its exact restoration into a tracker constructed
  /// with the same (node_count, link_count, opts).
  struct Snapshot {
    std::vector<ElementSnapshot> nodes;
    std::vector<ElementSnapshot> links;
    bool has_history = false;
  };
  [[nodiscard]] Snapshot snapshot() const {
    return {nodes_.snapshot(), links_.snapshot(), has_history_};
  }
  void restore(const Snapshot& snap) {
    nodes_.restore(snap.nodes);
    links_.restore(snap.links);
    has_history_ = snap.has_history;
  }

 private:
  ClassTracker nodes_;
  ClassTracker links_;
  bool has_history_ = false;
};

}  // namespace hmn::availability
