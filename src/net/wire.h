// Wire messages exchanged between cluster nodes.
//
// The threaded cluster speaks the same counter protocol as the synchronous
// simulation (monitor/round_schedule.h documents the rounds); these are the
// concrete message frames. Site->coordinator traffic is bundled: the paper's
// Section VI-A sends all counter updates caused by one event in one message;
// a site goes one step further and ships the updates of a run of up to
// kMaxEventsPerReportBundle consecutive events of one EventBatch in one
// UpdateBundle. Reports are cumulative counts, so bundling changes neither
// the estimate nor the number of counter updates, only the frame count.

#ifndef DSGM_NET_WIRE_H_
#define DSGM_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics.h"

namespace dsgm {

/// Upper bound on the events whose reports share one kReports bundle. A
/// site flushes its reports after every this-many events of a batch and at
/// the end of every batch, so a report waits for at most this many events
/// of site work (tens of microseconds) before it ships.
constexpr int kMaxEventsPerReportBundle = 64;

/// Bound, in bundles, of every site->coordinator update queue (loopback
/// queue, reactor inboxes, merged coordinator queue). Sized so a full queue
/// holds about 8192 events of reports: bounding it in bundles alone would
/// let the backlog (and with it snapshot staleness) grow with the bundle
/// size.
constexpr size_t kUpdateQueueCapacity = 8192 / kMaxEventsPerReportBundle;

/// One counter report inside an UpdateBundle: the site's cumulative local
/// count of `counter` at the moment of reporting.
struct CounterReport {
  int64_t counter = 0;
  uint32_t value = 0;
};

/// Site -> coordinator frame.
struct UpdateBundle {
  enum class Kind : uint8_t {
    kReports,      // sampled counter reports of up to
                   // kMaxEventsPerReportBundle consecutive events, in the
                   // order the site generated them
    kSync,         // exact counts replying to a round advance
    kSiteDone,     // the site has processed its whole stream
    kFinalCounts,  // exact per-counter totals, sent after protocol shutdown
                   // so a remote coordinator can validate its estimates
  };
  Kind kind = Kind::kReports;
  int32_t site = -1;
  /// Round the sync replies to (kSync only); stale replies are harmless
  /// because reports carry cumulative counts.
  int32_t round = -1;
  std::vector<CounterReport> reports;
};

/// Coordinator -> site frame: counter `counter` enters `round` with
/// reporting probability `probability`; the site must reply with a sync.
struct RoundAdvance {
  int64_t counter = 0;
  int32_t round = 0;
  float probability = 1.0f;
};

/// Stream events are dispatched to sites as batches of instances, flattened
/// into one values array (num_vars values per event).
struct EventBatch {
  int32_t num_events = 0;
  std::vector<int32_t> values;
};

/// The health half of a site's telemetry frame (kHeartbeat, net/codec.h):
/// cumulative counters the coordinator folds into its live per-site health
/// table (common/metrics.h SiteHealthBoard), on the row of the connection
/// the frame arrived on. All fields are totals since the site started, so
/// a lost frame costs nothing.
struct SiteStatsReport {
  int64_t events_processed = 0;
  /// kReports bundles sent (one per run of up to kMaxEventsPerReportBundle
  /// events), not counter reports.
  uint64_t updates_sent = 0;
  uint64_t syncs_sent = 0;
  uint64_t rounds_seen = 0;
};

/// Heartbeat timing payload. Heartbeats carry three clock
/// samples so the coordinator can estimate each site's clock offset with
/// the NTP four-timestamp method, closed over two legs: the coordinator
/// echoes every site heartbeat (stamping `send_nanos` with its own clock),
/// and the site's NEXT heartbeat carries that echo back together with its
/// own receive time. The fourth timestamp — when this heartbeat reached
/// the coordinator — is measured locally at delivery, never trusted from
/// the wire. Zeros mean "no sample yet" (before the site's first echo
/// round-trip completes).
struct HeartbeatTimestamps {
  /// Sender's clock at the moment this frame was built.
  int64_t send_nanos = 0;
  /// Site->coordinator only: the coordinator clock stamped into the last
  /// echo this site received (the echo's send_nanos, reflected back).
  int64_t echo_nanos = 0;
  /// Site->coordinator only: the site clock when that echo arrived.
  int64_t echo_recv_nanos = 0;
};

/// The trace half of a site's telemetry frame: an incremental drain of the
/// site's per-thread TraceRings. `first_seq` is the site-local sequence
/// number of events[0]; the cursor is monotone, so the coordinator can
/// account for events lost to ring overwrite (gaps) without any
/// retransmission — drains are loss-tolerant by construction. Empty when
/// the site ships no traces or had nothing new to drain.
struct TraceChunk {
  uint64_t first_seq = 0;
  std::vector<TraceEvent> events;
};

// Structural equality, used by the codec round-trip and transport
// conformance tests.
inline bool operator==(const CounterReport& a, const CounterReport& b) {
  return a.counter == b.counter && a.value == b.value;
}
inline bool operator==(const UpdateBundle& a, const UpdateBundle& b) {
  return a.kind == b.kind && a.site == b.site && a.round == b.round &&
         a.reports == b.reports;
}
inline bool operator==(const RoundAdvance& a, const RoundAdvance& b) {
  return a.counter == b.counter && a.round == b.round &&
         a.probability == b.probability;
}
inline bool operator==(const EventBatch& a, const EventBatch& b) {
  return a.num_events == b.num_events && a.values == b.values;
}
inline bool operator==(const SiteStatsReport& a, const SiteStatsReport& b) {
  return a.events_processed == b.events_processed &&
         a.updates_sent == b.updates_sent && a.syncs_sent == b.syncs_sent &&
         a.rounds_seen == b.rounds_seen;
}
inline bool operator==(const HeartbeatTimestamps& a,
                       const HeartbeatTimestamps& b) {
  return a.send_nanos == b.send_nanos && a.echo_nanos == b.echo_nanos &&
         a.echo_recv_nanos == b.echo_recv_nanos;
}
inline bool operator==(const TraceChunk& a, const TraceChunk& b) {
  if (a.first_seq != b.first_seq || a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (!(a.events[i] == b.events[i])) return false;
  }
  return true;
}

}  // namespace dsgm

#endif  // DSGM_NET_WIRE_H_
