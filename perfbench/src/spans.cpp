#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

// Spans the calling thread has open, innermost last, and the end of the
// span it closed most recently.
thread_local std::vector<std::int32_t> t_open;
thread_local std::int64_t t_last_close_ns = 0;

}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::kHandle: return "orchestrator.handle";
    case Layer::kTail: return "orchestrator.handle.tail";
    case Layer::kDefrag: return "orchestrator.defrag";
    case Layer::kAdmitBatch: return "orchestrator.router.admit_batch";
    case Layer::kRelease: return "orchestrator.router.release";
    case Layer::kHmn: return "core.hmn";
    case Layer::kRa: return "baselines.ra";
    case Layer::kSpread: return "extensions.spread";
    case Layer::kMultilevel: return "multilevel.mapper";
    case Layer::kWalAppend: return "recovery.wal.append";
    case Layer::kWalCheckpoint: return "recovery.wal.checkpoint";
    case Layer::kRecover: return "recovery.recover";
    case Layer::kParseJournal: return "recovery.parse_journal";
    case Layer::kPartition: return "topology.partition";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder(std::size_t reserve) { spans_.reserve(reserve); }

std::int32_t SpanRecorder::open(Layer layer, bool root) {
  Span s;
  s.layer = layer;
  s.start_ns = now_ns();
  std::int32_t id = 0;
  {
    const std::lock_guard lock(mutex_);
    s.event = event_;
    s.parent = t_open.empty() ? root_ : t_open.back();
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    if (root) root_ = id;
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(std::int32_t id, bool root) {
  const std::int64_t end = now_ns();
  {
    const std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    if (root) root_ = -1;
  }
  t_open.pop_back();
  t_last_close_ns = end;
}

void SpanRecorder::add(Layer layer, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t bytes) {
  Span s;
  s.layer = layer;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.bytes = bytes;
  const std::lock_guard lock(mutex_);
  s.event = event_;
  s.parent = t_open.empty() ? root_ : t_open.back();
  spans_.push_back(s);
}

void SpanRecorder::set_event(std::uint64_t event) {
  const std::lock_guard lock(mutex_);
  event_ = event;
}

void SpanRecorder::set_outcome(std::int32_t id, bool ok,
                               const hmn::core::MapStats& stats) {
  const std::lock_guard lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.ok = ok;
  s.stats = stats;
}

void SpanRecorder::set_bytes(std::int32_t id, std::uint64_t bytes) {
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].bytes = bytes;
}

std::int64_t SpanRecorder::last_close_ns() { return t_last_close_ns; }

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    cover.clear();
    for (const std::int32_t c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void SpanRecorder::write_tsv(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "id\tname\tstart_ns\tend_ns\tparent\tevent\tok\tbytes\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << to_string(s.layer) << '\t' << s.start_ns - t0 << '\t'
        << s.end_ns - t0 << '\t' << s.parent << '\t' << s.event << '\t'
        << (s.ok ? 1 : 0) << '\t' << s.bytes << '\n';
  }
}

hmn::core::MapOutcome TimedMapper::map(
    const hmn::model::PhysicalCluster& cluster,
    const hmn::model::VirtualEnvironment& venv, std::uint64_t seed) const {
  const SpanScope span(rec_, layer_);
  hmn::core::MapOutcome out = inner_->map(cluster, venv, seed);
  rec_->set_outcome(span.id(), out.ok(), out.stats);
  return out;
}

TracingObserver::TracingObserver(SpanRecorder& rec,
                                 const hmn::orchestrator::Orchestrator& orch,
                                 hmn::orchestrator::TxnObserver* inner,
                                 const std::string* journal,
                                 std::uint64_t checkpoint_every_events)
    : rec_(&rec),
      orch_(&orch),
      inner_(inner),
      journal_(journal),
      checkpoint_every_(checkpoint_every_events) {}

void TracingObserver::on_event_begin(std::uint64_t event_index,
                                     const hmn::workload::TenantEvent& ev) {
  mark_ns_ = now_ns();
  release_ns_ = 0;
  defrag_before_s_ = orch_->report().defrag.total_seconds;
  if (inner_ == nullptr) return;
  const SpanScope span(rec_, Layer::kWalAppend);
  const std::uint64_t before = journal_size();
  inner_->on_event_begin(event_index, ev);
  rec_->set_bytes(span.id(), journal_size() - before);
}

void TracingObserver::on_txn(const hmn::orchestrator::TxnRecord& txn) {
  mark_ns_ = now_ns();
  if (txn.kind == hmn::orchestrator::TxnKind::kReleaseCommit) {
    release_ns_ = mark_ns_;
  }
  if (inner_ == nullptr) return;
  const SpanScope span(rec_, Layer::kWalAppend);
  const std::uint64_t before = journal_size();
  inner_->on_txn(txn);
  rec_->set_bytes(span.id(), journal_size() - before);
}

void TracingObserver::on_event_end(std::uint64_t event_index, double time,
                                   std::uint64_t fingerprint) {
  const std::int64_t end = now_ns();
  std::int64_t tail_start = std::max(mark_ns_, SpanRecorder::last_close_ns());
  // Defrag runs inside handle() between the release and the queue drain;
  // the orchestrator reports its duration, so it is placed right after the
  // release transaction.
  const double defrag_s =
      orch_->report().defrag.total_seconds - defrag_before_s_;
  if (defrag_s > 0.0 && release_ns_ != 0) {
    const std::int64_t defrag_end = std::min(
        end, release_ns_ + static_cast<std::int64_t>(defrag_s * 1e9));
    rec_->add(Layer::kDefrag, release_ns_, defrag_end);
    tail_start = std::max(tail_start, defrag_end);
  }
  rec_->add(Layer::kTail, std::min(tail_start, end), end);
  if (inner_ == nullptr) return;
  const bool cuts_checkpoint =
      checkpoint_every_ != 0 && (event_index + 1) % checkpoint_every_ == 0;
  const SpanScope span(
      rec_, cuts_checkpoint ? Layer::kWalCheckpoint : Layer::kWalAppend);
  const std::uint64_t before = journal_size();
  inner_->on_event_end(event_index, time, fingerprint);
  rec_->set_bytes(span.id(), journal_size() - before);
}

}  // namespace perfbench
