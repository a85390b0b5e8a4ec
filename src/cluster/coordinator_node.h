// Coordinator-side logic of the threaded cluster.

#ifndef DSGM_CLUSTER_COORDINATOR_NODE_H_
#define DSGM_CLUSTER_COORDINATOR_NODE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/wire.h"
#include "net/channel.h"
#include "monitor/comm_stats.h"
#include "monitor/counter_protocol.h"

namespace dsgm {

/// The coordinator thread: consumes update bundles from all sites and drives
/// the coordinator half of the counter protocol (monitor/counter_protocol.h)
/// with them — estimates, round advances, the sync handshake — pushing each
/// advance to every live site's command queue. On top it keeps the run's
/// lifecycle, communication stats, metrics and snapshot publication.
class CoordinatorNode {
 public:
  /// Most bundles one Run() pop takes off the update queue and merges.
  static constexpr size_t kMergePopBatch = 64;
  /// Publish cadence under load, in pops (coordinator_node.cc says why).
  static constexpr int kPublishEveryBatches = 8;

  /// `epsilons` follows the MleTracker counter layout; empty means exact
  /// mode (reporting probability pinned to 1, no rounds). `commands[s]` is
  /// site s's command queue.
  CoordinatorNode(std::vector<float> epsilons, int64_t num_counters, int num_sites,
                  double probability_constant,
                  Channel<UpdateBundle>* from_sites,
                  std::vector<Channel<RoundAdvance>*> commands);

  /// Thread body: runs until every site reported done and no sync replies
  /// are outstanding, then closes the command queues.
  void Run() DSGM_EXCLUDES(mu_);

  /// Authoritative-state accessors, safe at any time (they take the
  /// protocol lock). For high-rate mid-run polling prefer SnapshotState(),
  /// which reads the published buffers and never contends with Run().
  CommStats comm() const DSGM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return comm_;
  }
  double Estimate(int64_t counter) const DSGM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return protocol_.Estimate(counter);
  }
  int64_t num_counters() const { return num_counters_; }

  /// Thread-safe mid-run snapshot — the coordinator-side half of the
  /// paper's Algorithm 3 QUERY: copies the latest PUBLISHED estimates (and,
  /// when `comm` is non-null, the communication stats) while Run() keeps
  /// consuming updates on its own thread.
  ///
  /// Publication is double-buffered and activates on the first query (a
  /// run that never snapshots pays nothing on the update path): Run()
  /// periodically writes the cells touched since a buffer's last publish
  /// into the inactive buffer — O(touched cells), not O(counters) — and
  /// flips an epoch-style front index; it also publishes right before
  /// blocking on an empty queue, so snapshots of a quiet stream are exact.
  /// Readers copy the front buffer under that buffer's own mutex; the
  /// writer only try_locks the back buffer and defers a publish (keeping
  /// the cells dirty) when a laggard reader still holds it. In steady
  /// state Run() therefore NEVER blocks on snapshot readers, no matter how
  /// fast they poll (only the activating queries, before the first publish
  /// lands, are served from the live state under the protocol lock), and a
  /// snapshot is consistent at bundle-batch granularity — at most a few
  /// batches behind the live state while the stream is hot.
  void SnapshotState(std::vector<double>* estimates, CommStats* comm) const
      DSGM_EXCLUDES(mu_);

  /// Thread-safe outstanding-sync cancellation for a site declared dead by
  /// the transport's liveness protocol: marks the site done and forgives
  /// every sync reply it still owes, so Run()'s exit condition can settle
  /// instead of waiting forever on a peer that will never answer. Future
  /// round advances skip the site. Idempotent.
  void CancelSite(int site) DSGM_EXCLUDES(mu_);

  /// Seconds between the first and the last message the coordinator
  /// received — the paper's Fig. 7 "total runtime" definition.
  double ActiveSeconds() const DSGM_EXCLUDES(mu_);

 private:
  /// Feeds a valid site's kReports or kSync bundle to the protocol; ids are
  /// validated first (a forged counter would index out of bounds).
  void ApplyBundle(const UpdateBundle& bundle) DSGM_REQUIRES(mu_);
  /// Pushes every advance the protocol decided to the live sites and
  /// charges the broadcasts.
  void SendAdvances() DSGM_REQUIRES(mu_);
  /// Records that the estimate of `counter` changed since each buffer's last
  /// publish: one unconditional byte store, no load, compare or list append
  /// on the report path (the publish finds the marks by scanning). No-op
  /// until the first query activates publication, so runs nobody queries
  /// pay nothing on the report path.
  void TouchEstimate(size_t counter) DSGM_REQUIRES(mu_);
  /// Starts dirty tracking after the first query: marks every cell pending
  /// once (the catch-up publish is one full copy, like a single pre-PR5
  /// snapshot), after which publishes copy only the marked cells.
  void ActivatePublication() DSGM_REQUIRES(mu_);
  /// The per-batch publish decision: no-op in state 0; immediate publish
  /// on activation (state 1) or when `force` or the cadence counter says
  /// so.
  void MaybePublish(bool force) DSGM_REQUIRES(mu_);
  /// Publishes the dirty cells + comm stats into the back buffer and flips
  /// the front index; returns whether it published. With `wait` false
  /// (cadence publishes), a reader holding the back buffer defers the
  /// publish — the caller must keep the cells dirty and retry; with `wait`
  /// true (pre-block and Run exit), waits out the reader's bounded copy so
  /// the published state is current whenever Run goes quiet.
  bool PublishSnapshot(bool wait) DSGM_REQUIRES(mu_);

  int64_t num_counters_;
  int num_sites_;
  Channel<UpdateBundle>* from_sites_;
  std::vector<Channel<RoundAdvance>*> commands_;

  /// Guards every piece of protocol and estimate state below: Run()'s
  /// batch processing, CancelSite (called from the transport's liveness
  /// thread mid-run), and the authoritative accessors (comm/Estimate/
  /// ActiveSeconds/the pre-publication SnapshotState path). Steady-state
  /// snapshot readers do NOT take it — they read the published buffers.
  /// Lock order: mu_ before a published_[i].mu (Run publishes while
  /// holding mu_); readers take exactly one of the two, never both.
  mutable Mutex mu_;

  CounterCoordinator protocol_ DSGM_GUARDED_BY(mu_);
  // Advances the last protocol step decided; empty between steps.
  std::vector<CounterAdvance> advances_ DSGM_GUARDED_BY(mu_);
  // which sites reported kSiteDone
  std::vector<uint8_t> site_done_ DSGM_GUARDED_BY(mu_);
  int done_sites_ DSGM_GUARDED_BY(mu_) = 0;
  CommStats comm_ DSGM_GUARDED_BY(mu_);

  // --- Double-buffered snapshot publication ------------------------------
  // The estimates and comm_ are written only by the Run thread; steady-state
  // readers see them through these published copies (see SnapshotState's
  // contract).
  struct PublishedState {
    Mutex mu;
    std::vector<double> estimates DSGM_GUARDED_BY(mu);
    CommStats comm DSGM_GUARDED_BY(mu);
  };
  mutable PublishedState published_[2];
  std::atomic<int> published_front_{0};
  /// 0 = no query yet (Run skips publishing entirely); 1 = a query arrived,
  /// Run publishes at the next opportunity; 2 = published state is live,
  /// readers use the buffers. Monotone 0 -> 1 -> 2.
  mutable std::atomic<int> publish_state_{0};
  /// Bit b set: the cell is pending publication into buffer b. A publish
  /// skips clean cells eight at a time, so its scan is O(counters / 8) and
  /// its copy O(touched cells).
  std::vector<uint8_t> publish_dirty_ DSGM_GUARDED_BY(mu_);
  /// Run-thread mirror of "publication is on" (avoids an atomic load per
  /// report) plus the publish cadence counter.
  bool publish_tracking_ DSGM_GUARDED_BY(mu_) = false;
  int batches_since_publish_ DSGM_GUARDED_BY(mu_) = 0;

  // The annotation pass flagged these three: they were written by Run()
  // outside any lock while ActiveSeconds() read them bare — benign for
  // post-join callers, a data race for mid-run ones. Guarded now.
  // Monotonic NowNanos() timestamps (common/timer.h).
  int64_t first_message_nanos_ DSGM_GUARDED_BY(mu_) = 0;
  int64_t last_message_nanos_ DSGM_GUARDED_BY(mu_) = 0;
  bool saw_message_ DSGM_GUARDED_BY(mu_) = false;

  // Shared process-wide instruments (common/metrics.h). Updated at batch /
  // publish granularity only — never per report — so instrumentation cost
  // stays invisible next to the protocol work. Comm gauges mirror comm_
  // (satellite of the same registry snapshot a dump or bench embeds).
  Counter* const rounds_advanced_metric_;
  Counter* const publishes_metric_;
  Counter* const publish_deferred_metric_;
  Histogram* const publish_ns_metric_;
  Gauge* const outstanding_syncs_gauge_;
  Gauge* const bytes_up_gauge_;
  Gauge* const bytes_down_gauge_;
  Gauge* const wire_messages_gauge_;
  Gauge* const update_messages_gauge_;
  Gauge* const sync_messages_gauge_;
  Gauge* const broadcast_messages_gauge_;
};

}  // namespace dsgm

#endif  // DSGM_CLUSTER_COORDINATOR_NODE_H_
