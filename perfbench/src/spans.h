// Tracing for the benchmark's traced run.  Spans are recorded from the
// benchmark's own files only, around the calls it makes into each hmn
// module: a decorator around every pool entry, a forwarding TxnObserver
// in front of the write-ahead journal, and scoped timers around handle(),
// admit_batch(), release(), recover(), parse_journal() and
// partition_cluster().  Spans stay in memory and are written out once, at
// exit; a span's self time is its duration minus the union of its
// children's intervals.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "orchestrator/orchestrator.h"

namespace perfbench {

/// One boundary the benchmark times.  The names are the per-layer metric
/// prefixes: the module first, then the public function or role.
enum class Layer : std::uint8_t {
  kHandle,         // orchestrator: Orchestrator::handle
  kTail,           // orchestrator: last child span or txn -> on_event_end
  kDefrag,         // orchestrator: report().defrag time of one event
  kAdmitBatch,     // orchestrator: PlacementRouter::admit_batch
  kRelease,        // orchestrator: PlacementRouter::release
  kHmn,            // core: HmnMapper as a pool entry
  kRa,             // baselines: RandomAStarMapper as a pool entry
  kSpread,         // extensions: ReplicaSpreadMapper wrapping HMN
  kMultilevel,     // multilevel: MultilevelMapper as a shard pool entry
  kWalAppend,      // recovery: WalManager callbacks that cut no checkpoint
  kWalCheckpoint,  // recovery: WalManager::on_event_end cutting a checkpoint
  kRecover,        // recovery: recovery::recover
  kParseJournal,   // recovery: recovery::parse_journal
  kPartition,      // topology: partition_cluster
};

[[nodiscard]] const char* to_string(Layer layer);

struct Span {
  Layer layer = Layer::kHandle;
  bool ok = true;              // mapper spans: the outcome was a mapping
  std::int32_t parent = -1;    // index of the enclosing span, -1 at top
  std::uint64_t event = 0;     // index of the trace event being handled
  std::int64_t start_ns = 0;   // steady clock
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;     // journal spans: bytes appended
  hmn::core::MapStats stats;   // mapper spans: the outcome's stage split
};

[[nodiscard]] std::int64_t now_ns();

/// Thread-safe in-memory span log.  A span opened on a thread with no open
/// span of its own (a router worker) is parented to the current root, the
/// top-level span the driving thread has open.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Index of the trace event the following spans belong to.
  void set_event(std::uint64_t event);

  /// Opens a span at now_ns(); `root` marks the driving thread's top-level
  /// span.  Returns its index.
  std::int32_t open(Layer layer, bool root = false);
  /// Closes span `id` at now_ns().
  void close(std::int32_t id, bool root = false);
  /// Records a span whose interval is already known, parented to the
  /// calling thread's innermost open span.
  void add(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t bytes = 0);
  void set_outcome(std::int32_t id, bool ok,
                   const hmn::core::MapStats& stats);
  void set_bytes(std::int32_t id, std::uint64_t bytes);

  /// End of the span most recently closed on the calling thread.
  [[nodiscard]] static std::int64_t last_close_ns();

  /// The log.  Call only once every span is closed and no thread records.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in seconds, indexed like spans().
  [[nodiscard]] std::vector<double> self_seconds() const;

  /// Writes one tab-separated line per span (name, start, end, parent,
  /// event, ok, bytes) with times relative to the first span.
  void write_tsv(const std::filesystem::path& path) const;

 private:
  std::mutex mutex_;  // guards spans_, root_ and event_
  std::vector<Span> spans_;
  std::int32_t root_ = -1;
  std::uint64_t event_ = 0;
};

/// Opens a span for its lifetime; a null recorder makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, Layer layer, bool root = false)
      : rec_(rec),
        root_(root),
        id_(rec != nullptr ? rec->open(layer, root) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_, root_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  bool root_;
  std::int32_t id_;
};

/// Pool-entry decorator: times every map() call of the wrapped mapper and
/// keeps its outcome and stage split.  The name is the inner mapper's, so
/// the decorated pool decides exactly as the plain one.
class TimedMapper final : public hmn::core::Mapper {
 public:
  TimedMapper(hmn::core::MapperPtr inner, Layer layer, SpanRecorder& rec)
      : inner_(std::move(inner)), layer_(layer), rec_(&rec) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] hmn::core::MapOutcome map(
      const hmn::model::PhysicalCluster& cluster,
      const hmn::model::VirtualEnvironment& venv,
      std::uint64_t seed) const override;

 private:
  hmn::core::MapperPtr inner_;
  Layer layer_;
  SpanRecorder* rec_;
};

/// Forwarding TxnObserver.  It marks every transaction, records the
/// audit-and-sample tail of each event and the event's defrag time, and,
/// when a journal keeper is given, times each forwarded callback, filing
/// the end-of-event callbacks that cut a checkpoint under their own layer.
class TracingObserver final : public hmn::orchestrator::TxnObserver {
 public:
  /// `inner` and `journal` may be null (no journal attached).
  TracingObserver(SpanRecorder& rec,
                  const hmn::orchestrator::Orchestrator& orch,
                  hmn::orchestrator::TxnObserver* inner,
                  const std::string* journal,
                  std::uint64_t checkpoint_every_events);

  void on_event_begin(std::uint64_t event_index,
                      const hmn::workload::TenantEvent& ev) override;
  void on_txn(const hmn::orchestrator::TxnRecord& txn) override;
  void on_event_end(std::uint64_t event_index, double time,
                    std::uint64_t fingerprint) override;

 private:
  std::uint64_t journal_size() const {
    return journal_ != nullptr ? journal_->size() : 0;
  }

  SpanRecorder* rec_;
  const hmn::orchestrator::Orchestrator* orch_;
  hmn::orchestrator::TxnObserver* inner_;
  const std::string* journal_;
  std::uint64_t checkpoint_every_;
  std::int64_t mark_ns_ = 0;     // latest event begin or txn
  std::int64_t release_ns_ = 0;  // this event's release txn, 0 if none
  double defrag_before_s_ = 0.0;
};

}  // namespace perfbench
