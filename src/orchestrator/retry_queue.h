// Deferred-retry (backfill) queue for rejected tenants.
//
// A tenant that does not fit at arrival is not necessarily lost: the next
// departure (or a defragmentation pass) may free exactly the capacity it
// needs.  The queue holds rejected tenants and re-attempts them when the
// orchestrator signals that capacity changed.  The drain order is a
// pluggable QueuePolicy (FIFO by default); every policy is a deterministic
// reorder of the same entries, and the orchestrator logs each admission /
// drop as a decision, so any policy replays byte-identically.  A
// per-tenant attempt cap bounds the work a hopeless giant can consume
// before it is dropped, and a *preemption budget* (max_passovers) bounds
// the unfairness the non-FIFO policies can inflict: a queued tenant that
// watches k later backfills admit past it is abandoned with an explicit
// preemption decision rather than starving invisibly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "model/virtual_environment.h"

namespace hmn::orchestrator {

/// Backfill drain order.  Admissions mutate residual capacity mid-drain,
/// so the order is policy, not cosmetics: whoever is tried first gets
/// first claim on freshly freed capacity.
enum class QueuePolicy : std::uint8_t {
  /// Arrival order — the fairness baseline.
  kFifo,
  /// Fewest guests first (ties: enqueue time, then key): small tenants
  /// backfill gaps a giant cannot use, maximizing admissions per drain at
  /// the cost of possibly starving the giant.
  kSmallestFirst,
  /// Longest wait first (ties: key).  Enqueue times grow monotonically, so
  /// this refines FIFO with a deterministic key tie-break for tenants
  /// rejected at the same event instant.
  kLargestWaitFirst,
};

[[nodiscard]] constexpr const char* to_string(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kSmallestFirst: return "smallest-first";
    case QueuePolicy::kLargestWaitFirst: return "largest-wait-first";
  }
  return "?";
}

/// A tenant waiting for admission.
struct PendingTenant {
  std::uint32_t key = 0;  // ChurnGenerator tenant key
  std::string name;
  model::VirtualEnvironment venv;
  std::uint64_t seed = 0;     // admission seed (attempts derive from it)
  double enqueued_at = 0.0;   // event time of the original rejection
  std::size_t attempts = 0;   // admission attempts so far (includes arrival)
  /// Backfills admitted by drains in which this entry failed — the count
  /// the preemption budget is charged against.
  std::size_t passed_over = 0;
};

class RetryQueue {
 public:
  /// max_attempts: drop a tenant after this many failed admissions
  /// (0 = never drop).  max_size: reject instead of enqueue when the queue
  /// is this long (0 = unbounded).  max_passovers: abandon a tenant once
  /// this many backfills have been admitted by drains that failed it
  /// (0 = never preempt).
  explicit RetryQueue(std::size_t max_attempts = 0, std::size_t max_size = 0,
                      QueuePolicy policy = QueuePolicy::kFifo,
                      std::size_t max_passovers = 0)
      : max_attempts_(max_attempts),
        max_size_(max_size),
        policy_(policy),
        max_passovers_(max_passovers) {}

  [[nodiscard]] QueuePolicy policy() const { return policy_; }

  [[nodiscard]] bool full() const {
    return max_size_ != 0 && entries_.size() >= max_size_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Enqueues a rejected tenant.  Returns false — and leaves the queue
  /// unchanged — when the queue is full, so an over-full queue rejects
  /// deterministically instead of silently growing.
  [[nodiscard]] bool push(PendingTenant tenant);

  /// Removes a tenant that departed before ever being admitted.  Returns
  /// the entry when present (for time-in-queue accounting).
  [[nodiscard]] std::optional<PendingTenant> erase(std::uint32_t key);
  /// Whether a tenant with this key waits in the queue.
  [[nodiscard]] bool contains(std::uint32_t key) const;

  struct DrainResult {
    std::vector<PendingTenant> admitted;   // entries `try_admit` accepted
    std::vector<PendingTenant> dropped;    // entries past max_attempts
    std::vector<PendingTenant> preempted;  // entries past max_passovers
  };

  /// Re-attempts every queued tenant in policy order.  `try_admit` is
  /// called with the entry (attempts already incremented) and returns
  /// whether the tenant was admitted; admitted and attempt-exhausted
  /// entries leave the queue, the rest stay in policy order.
  ///
  /// Preemption accounting runs after the pass: each entry that failed
  /// this drain is charged one passover per tenant the same drain
  /// *admitted* — capacity demonstrably existed and went to someone else,
  /// whatever the try order (under kSmallestFirst the starving giant is
  /// tried last, so order-sensitive accounting would never charge it).
  /// An entry whose lifetime passovers reach max_passovers is abandoned
  /// into `preempted`.  The attempt cap wins ties: an entry exhausting
  /// both budgets in the same drain is `dropped`, not preempted.
  template <typename TryAdmit>
  DrainResult drain(TryAdmit&& try_admit) {
    reorder();
    DrainResult result;
    std::deque<PendingTenant> keep;
    std::size_t admitted_count = 0;
    while (!entries_.empty()) {
      PendingTenant entry = std::move(entries_.front());
      entries_.pop_front();
      ++entry.attempts;
      if (try_admit(entry)) {
        ++admitted_count;
        result.admitted.push_back(std::move(entry));
      } else if (max_attempts_ != 0 && entry.attempts >= max_attempts_) {
        result.dropped.push_back(std::move(entry));
      } else {
        keep.push_back(std::move(entry));
      }
    }
    while (!keep.empty()) {
      PendingTenant entry = std::move(keep.front());
      keep.pop_front();
      entry.passed_over += admitted_count;
      if (max_passovers_ != 0 && entry.passed_over >= max_passovers_) {
        result.preempted.push_back(std::move(entry));
      } else {
        entries_.push_back(std::move(entry));
      }
    }
    return result;
  }

  /// Checkpoint support (src/recovery): the entries in queue order, and
  /// their exact restoration (any current entries are discarded).
  [[nodiscard]] std::vector<PendingTenant> export_entries() const;
  void restore_entries(std::vector<PendingTenant> entries);

 private:
  /// Deterministic policy reorder applied before each drain.  Stable, so
  /// entries the policy considers equal keep their FIFO order.
  void reorder() {
    switch (policy_) {
      case QueuePolicy::kFifo:
        return;
      case QueuePolicy::kSmallestFirst:
        std::stable_sort(entries_.begin(), entries_.end(),
                         [](const PendingTenant& a, const PendingTenant& b) {
                           if (a.venv.guest_count() != b.venv.guest_count()) {
                             return a.venv.guest_count() <
                                    b.venv.guest_count();
                           }
                           // hmn-lint: allow(float-eq, enqueue times are copied event timestamps; exact comparison is the deterministic tie-break)
                           if (a.enqueued_at != b.enqueued_at) {
                             return a.enqueued_at < b.enqueued_at;
                           }
                           return a.key < b.key;
                         });
        return;
      case QueuePolicy::kLargestWaitFirst:
        std::stable_sort(entries_.begin(), entries_.end(),
                         [](const PendingTenant& a, const PendingTenant& b) {
                           // hmn-lint: allow(float-eq, enqueue times are copied event timestamps; exact comparison is the deterministic tie-break)
                           if (a.enqueued_at != b.enqueued_at) {
                             return a.enqueued_at < b.enqueued_at;
                           }
                           return a.key < b.key;
                         });
        return;
    }
  }

  std::size_t max_attempts_;
  std::size_t max_size_;
  QueuePolicy policy_ = QueuePolicy::kFifo;
  std::size_t max_passovers_ = 0;
  std::deque<PendingTenant> entries_;
};

}  // namespace hmn::orchestrator
