// Site-side logic of the threaded cluster.

#ifndef DSGM_CLUSTER_SITE_NODE_H_
#define DSGM_CLUSTER_SITE_NODE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "bayes/network.h"
#include "core/counter_layout.h"
#include "monitor/counter_protocol.h"
#include "net/wire.h"
#include "net/channel.h"

namespace dsgm {

/// One remote site: consumes its event stream and drives the counter
/// protocol's site half (monitor/counter_protocol.h) over its channels:
/// local counts, report coins, sync replies to round advances.
///
/// Reports are bundled per run of events, not per event: the reports of up
/// to kMaxEventsPerReportBundle consecutive events of one EventBatch travel
/// in one kReports bundle, in the order they were generated. The bundle is
/// flushed after every kMaxEventsPerReportBundle-th event of a batch and at
/// the end of every batch, so it never spans two batches and always
/// precedes the sync replies the site sends after that batch. A batch of
/// one event (the in-process shape) therefore still yields one bundle.
///
/// Counter ids use the MleTracker layout (joint counters first, then parent
/// counters); the structural metadata needed to map an instance to counter
/// ids is precomputed at construction.
///
/// Concurrency contract: a SiteNode is single-threaded by construction —
/// every member is touched only by the thread running Run() (cross-thread
/// traffic flows through the Channels, which carry their own locks), so
/// there is no mutex and nothing to annotate. The one exception is the
/// stats block below: relaxed atomics written only by the Run() thread and
/// readable live by an observer thread (the heartbeat sender piggybacking
/// kStatsReport frames, or an in-process health board). local_counts() is
/// still for AFTER the thread joined.
class SiteNode {
 public:
  SiteNode(int site_id, const BayesianNetwork& network, uint64_t seed,
           Channel<EventBatch>* events, Channel<RoundAdvance>* commands,
           Channel<UpdateBundle>* to_coordinator);

  /// Thread body: runs until the event queue closes and drains, then keeps
  /// serving round advances until the command queue closes.
  void Run();

  int64_t events_processed() const {
    return events_processed_.load(std::memory_order_relaxed);
  }

  /// Cumulative protocol stats, safe to sample while Run() is live. The
  /// fields are sampled independently (no cross-field snapshot), which is
  /// fine for monitoring: each is monotone.
  SiteStatsReport StatsReport() const {
    SiteStatsReport report;
    report.site = site_id_;
    report.events_processed = events_processed_.load(std::memory_order_relaxed);
    report.updates_sent = updates_sent_.load(std::memory_order_relaxed);
    report.syncs_sent = syncs_sent_.load(std::memory_order_relaxed);
    report.rounds_seen = rounds_seen_.load(std::memory_order_relaxed);
    return report;
  }

  /// Exact cumulative local counts; read only after the thread has joined
  /// (used by the runner to validate coordinator estimates).
  const std::vector<uint32_t>& local_counts() const { return counters_.counts(); }

  /// Pop-batch bound of the event loop: the most EventBatches a site holds
  /// popped but not yet reported (public so tests can bound in-flight
  /// events).
  static constexpr size_t kEventPopBatch = 4;

 private:
  /// Pop-batch bound of the command loop (also the reserve size of
  /// command_buffer_).
  static constexpr size_t kCommandPopBatch = 256;

  /// Counts one event and appends its sampled reports to outbox_.
  void ProcessEvent(const int32_t* values);
  /// Ships outbox_ as one kReports bundle (no-op when it is empty).
  void FlushReports();
  void DrainCommands(bool block_until_closed);

  int site_id_;
  Channel<EventBatch>* events_;
  Channel<RoundAdvance>* commands_;
  Channel<UpdateBundle>* to_coordinator_;

  // Structure metadata (the canonical MleTracker counter flattening).
  CounterLayout layout_;

  // The protocol's site half: local counts, report bounds, report coins.
  CounterSite counters_;
  // ProcessEvent's scratch: the 2 · num_vars counter ids of one event.
  std::vector<int64_t> event_ids_;

  /// Reports of the events processed since the last FlushReports.
  std::vector<CounterReport> outbox_;
  size_t outbox_reserve_ = 0;
  std::vector<RoundAdvance> command_buffer_;

  // Live stats: single writer (the Run() thread), any reader, relaxed.
  // events_processed_ advances once per batch.
  std::atomic<int64_t> events_processed_{0};
  std::atomic<uint64_t> updates_sent_{0};  // kReports bundles, not reports.
  std::atomic<uint64_t> syncs_sent_{0};
  std::atomic<uint64_t> rounds_seen_{0};  // Highest round id answered.
};

}  // namespace dsgm

#endif  // DSGM_CLUSTER_SITE_NODE_H_
