#include "cluster/coordinator_node.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/timer.h"

namespace dsgm {

// Publish cadence under load (kPublishEveryBatches): every pop would be
// freshest; the cadence amortizes each publish's scan and copy over
// several pops. A pop spans up to kMergePopBatch bundles of up to
// kMaxEventsPerReportBundle events each (64 x 64 = 4096 events), so a
// saturated run publishes at least every 8 x 4096 = 32768 events, while
// the update queue itself holds about 8192. The pre-block publish in Run
// keeps snapshots EXACT whenever the stream goes quiet.

CoordinatorNode::CoordinatorNode(std::vector<float> epsilons, int64_t num_counters,
                                 int num_sites, double probability_constant,
                                 Channel<UpdateBundle>* from_sites,
                                 std::vector<Channel<RoundAdvance>*> commands)
    : num_counters_(num_counters),
      num_sites_(num_sites),
      from_sites_(from_sites),
      commands_(std::move(commands)),
      protocol_(std::move(epsilons), num_counters, num_sites,
                probability_constant),
      rounds_advanced_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.rounds_advanced")),
      publishes_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.publishes")),
      publish_deferred_metric_(
          MetricsRegistry::Global().GetCounter("cluster.coord.publish_deferred")),
      publish_ns_metric_(
          MetricsRegistry::Global().GetHistogram("cluster.coord.publish_ns")),
      outstanding_syncs_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.coord.outstanding_syncs")),
      bytes_up_gauge_(MetricsRegistry::Global().GetGauge("cluster.comm.bytes_up")),
      bytes_down_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.bytes_down")),
      wire_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.wire_messages")),
      update_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.update_messages")),
      sync_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.sync_messages")),
      broadcast_messages_gauge_(
          MetricsRegistry::Global().GetGauge("cluster.comm.broadcast_messages")) {
  DSGM_CHECK_EQ(static_cast<int>(commands_.size()), num_sites_);
  const size_t n = static_cast<size_t>(num_counters_);
  site_done_.assign(static_cast<size_t>(num_sites_), 0);
  published_[0].estimates.assign(n, 0.0);
  published_[1].estimates.assign(n, 0.0);
  publish_dirty_.assign(n, 0);
}

void CoordinatorNode::TouchEstimate(size_t counter) {
  if (!publish_tracking_) return;
  publish_dirty_[counter] = 3;  // Pending for both buffers.
}

void CoordinatorNode::ActivatePublication() {
  publish_dirty_.assign(static_cast<size_t>(num_counters_), 3);
  publish_tracking_ = true;
}

void CoordinatorNode::MaybePublish(bool force) {
  const int state = publish_state_.load(std::memory_order_acquire);
  if (state == 0) return;  // Nobody has ever queried; keep the path free.
  if (!publish_tracking_) ActivatePublication();
  if (state == 1 || force ||
      ++batches_since_publish_ >= kPublishEveryBatches) {
    // Forced publishes (about to block on an empty queue) must land: a
    // skipped one would leave the buffers stale for as long as the stream
    // stays quiet, breaking the quiet-stream-snapshots-are-exact promise.
    // Cadence publishes may be deferred by a laggard reader — then the
    // cells stay dirty, the saturated counter retries on the very next
    // batch, and readers stay off the stale buffers (state stays 1 on the
    // activation path).
    if (PublishSnapshot(/*wait=*/force)) {
      publish_state_.store(2, std::memory_order_release);
      batches_since_publish_ = 0;
    }
  }
}

bool CoordinatorNode::PublishSnapshot(bool wait) {
  const int back = published_front_.load(std::memory_order_relaxed) ^ 1;
  PublishedState& state = published_[back];
  if (!state.mu.TryLock()) {
    // A reader is copying this buffer (it loaded the front index just
    // before we flipped it last time). On a cadence publish we simply
    // defer — the caller keeps the cells dirty and retries next batch — so
    // a fast poller can never block the protocol loop. Pre-block and at
    // Run exit we must land the state, and the reader's copy is bounded,
    // so a blocking acquisition is fine (Run has nothing else to do then
    // anyway).
    if (!wait) {
      publish_deferred_metric_->Increment();
      Trace(TraceEventType::kSnapshotDefer, -1, 0);
      return false;
    }
    state.mu.Lock();
  }
  const int64_t publish_start = NowNanos();
  const std::vector<double>& estimates = protocol_.estimates();
  const uint8_t bit = static_cast<uint8_t>(1u << back);
  const uint64_t any_in_word = 0x0101010101010101ULL * bit;
  uint8_t* const dirty = publish_dirty_.data();
  const size_t n = publish_dirty_.size();
  for (size_t word = 0; word < n; word += 8) {
    const size_t end = std::min(n, word + 8);
    if (end - word == 8) {
      uint64_t marks;
      std::memcpy(&marks, dirty + word, sizeof(marks));
      if ((marks & any_in_word) == 0) continue;  // Eight clean cells.
    }
    for (size_t c = word; c < end; ++c) {
      if (!(dirty[c] & bit)) continue;
      state.estimates[c] = estimates[c];
      dirty[c] = static_cast<uint8_t>(dirty[c] & ~bit);
    }
  }
  state.comm = comm_;
  state.mu.Unlock();
  published_front_.store(back, std::memory_order_release);
  publishes_metric_->Increment();
  publish_ns_metric_->Record(static_cast<uint64_t>(NowNanos() - publish_start));
  Trace(TraceEventType::kSnapshotPublish, -1,
        static_cast<int64_t>(publishes_metric_->Value()));
  return true;
}

void CoordinatorNode::CancelSite(int site) {
  MutexLock lock(&mu_);
  if (!protocol_.CancelSite(site)) return;
  Trace(TraceEventType::kSiteCancelled, site, 0);
  const size_t s = static_cast<size_t>(site);
  if (!site_done_[s]) {
    site_done_[s] = 1;
    ++done_sites_;
  }
}

void CoordinatorNode::ApplyBundle(const UpdateBundle& bundle) {
  const bool sync = bundle.kind == UpdateBundle::Kind::kSync;
  for (const CounterReport& report : bundle.reports) {
    if (report.counter < 0 || report.counter >= num_counters_) continue;
    if (sync ? protocol_.OnSync(report.counter, bundle.site, report.value, &advances_)
             : protocol_.OnReport(report.counter, bundle.site, report.value,
                                  &advances_)) {
      TouchEstimate(static_cast<size_t>(report.counter));
    }
    if (!advances_.empty()) SendAdvances();
  }
}

void CoordinatorNode::SendAdvances() {
  for (const CounterAdvance& advance : advances_) {
    ++comm_.rounds_advanced;
    rounds_advanced_metric_->Increment();
    Trace(TraceEventType::kRoundAdvance, -1, advance.counter);
    const RoundAdvance command{advance.counter, advance.round, advance.probability};
    uint64_t live = 0;
    for (int s = 0; s < num_sites_; ++s) {
      if (!protocol_.site_live(s)) continue;
      ++live;
      commands_[static_cast<size_t>(s)]->Push(command);
    }
    comm_.broadcast_messages += live;
    comm_.wire_messages += live;
    comm_.bytes_down += kEstimatedBroadcastBytes * live;
  }
  advances_.clear();
}

void CoordinatorNode::Run() {
  std::vector<UpdateBundle> batch;
  while (true) {
    {
      // Under the lock: CancelSite mutates done/outstanding from the
      // transport's liveness thread while this loop is live.
      MutexLock lock(&mu_);
      if (done_sites_ == num_sites_ && protocol_.outstanding() == 0) break;
    }
    batch.clear();
    size_t got = from_sites_->TryPopBatch(&batch, kMergePopBatch);
    if (got == 0) {
      // About to block: land the pending cells first, so a snapshot taken
      // while the sites are idle reflects everything received. The pops
      // themselves stay OUTSIDE mu_: holding it across a blocking PopBatch
      // would deadlock CancelSite — which is exactly what un-wedges a
      // dead-site run.
      {
        MutexLock lock(&mu_);
        MaybePublish(/*force=*/true);
      }
      got = from_sites_->PopBatch(&batch, kMergePopBatch);
      if (got == 0) break;  // Queue closed: all readers gone or run failed.
    }
    const int64_t now_nanos = NowNanos();
    {
      MutexLock lock(&mu_);
      if (!saw_message_) {
        first_message_nanos_ = now_nanos;
        saw_message_ = true;
      }
      last_message_nanos_ = now_nanos;
      for (const UpdateBundle& bundle : batch) {
        // Bundles can arrive from a real network peer; ids must be
        // validated before they index protocol state (a forged site/counter
        // would be an out-of-bounds write, not just a bad estimate).
        const bool site_ok = bundle.site >= 0 && bundle.site < num_sites_;
        switch (bundle.kind) {
          case UpdateBundle::Kind::kReports:
            ++comm_.wire_messages;
            comm_.update_messages += bundle.reports.size();
            comm_.bytes_up += kEstimatedUpdateBytes * bundle.reports.size();
            if (site_ok) ApplyBundle(bundle);
            break;
          case UpdateBundle::Kind::kSync:
            ++comm_.wire_messages;
            comm_.sync_messages += bundle.reports.size();
            comm_.bytes_up += kEstimatedSyncBytes * bundle.reports.size();
            Trace(TraceEventType::kSyncMessage, bundle.site,
                  static_cast<int64_t>(bundle.reports.size()));
            if (site_ok) ApplyBundle(bundle);
            break;
          case UpdateBundle::Kind::kSiteDone:
            // One done per real site: a forged or repeated marker must not
            // end the run while genuine sites are still streaming.
            if (site_ok && !site_done_[static_cast<size_t>(bundle.site)]) {
              site_done_[static_cast<size_t>(bundle.site)] = 1;
              ++done_sites_;
            }
            break;
          case UpdateBundle::Kind::kFinalCounts:
            // Validation frames for the multi-process driver; they are sent
            // only after the protocol finished, so Run never sees one.
            // Ignore defensively.
            break;
        }
      }
      // Publishing happens under mu_ (it reads the estimates and comm_), but
      // steady-state snapshot readers synchronize on the BUFFER locks, so a
      // poller still never delays the next PopBatch. State 0 (nobody ever
      // queried) skips publication entirely; state 1 (first query just
      // arrived) publishes immediately and moves readers onto the buffers.
      MaybePublish(/*force=*/false);
      // Mirror the comm totals into the registry at batch granularity: a
      // handful of gauge stores per ≤kMergePopBatch bundles, invisible next
      // to the protocol work, and a metrics dump needs no access to this
      // node.
      outstanding_syncs_gauge_->Set(protocol_.outstanding());
      bytes_up_gauge_->Set(static_cast<int64_t>(comm_.bytes_up));
      bytes_down_gauge_->Set(static_cast<int64_t>(comm_.bytes_down));
      wire_messages_gauge_->Set(static_cast<int64_t>(comm_.wire_messages));
      update_messages_gauge_->Set(static_cast<int64_t>(comm_.update_messages));
      sync_messages_gauge_->Set(static_cast<int64_t>(comm_.sync_messages));
      broadcast_messages_gauge_->Set(
          static_cast<int64_t>(comm_.broadcast_messages));
    }
  }
  {
    // Land the final state even if a reader momentarily holds the back
    // buffer: post-join accessors and the session's final model read the
    // published front. A run nobody queried keeps skipping (post-join
    // readers are served from the live state).
    MutexLock lock(&mu_);
    if (publish_state_.load(std::memory_order_acquire) != 0) {
      if (!publish_tracking_) ActivatePublication();
      PublishSnapshot(/*wait=*/true);
      publish_state_.store(2, std::memory_order_release);
    }
  }
  for (Channel<RoundAdvance>* channel : commands_) channel->Close();
}

void CoordinatorNode::SnapshotState(std::vector<double>* estimates,
                                    CommStats* comm) const {
  if (publish_state_.load(std::memory_order_acquire) != 2) {
    // No published state yet (first query, or Run already exited without
    // one): request activation and serve this query from the live state
    // under the protocol lock — the pre-publication behavior. Run flips to
    // state 2 with its next publish; until then the buffers may be stale,
    // so every reader stays on this path.
    int expected = 0;
    publish_state_.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel);
    MutexLock lock(&mu_);
    *estimates = protocol_.estimates();
    if (comm != nullptr) *comm = comm_;
    return;
  }
  const int front = published_front_.load(std::memory_order_acquire);
  PublishedState& state = published_[front];
  MutexLock lock(&state.mu);
  // If the front flipped between the load and the lock, this buffer is now
  // the back: holding its mutex makes the writer's try_lock fail (it skips
  // that publish), so the copy is still a complete, consistent published
  // state — at most one publish stale.
  *estimates = state.estimates;
  if (comm != nullptr) *comm = state.comm;
}

double CoordinatorNode::ActiveSeconds() const {
  MutexLock lock(&mu_);
  if (!saw_message_) return 0.0;
  return static_cast<double>(last_message_nanos_ - first_message_nanos_) * 1e-9;
}

}  // namespace dsgm
