// Cluster-wide causal tracing: the coordinator-side half of trace shipping.
//
// common/metrics.h gives every thread a TraceRing and every process a
// drain cursor; the net layer ships drained chunks coordinator-ward inside
// its telemetry frames (kHeartbeat). This header is where the shipped pieces become one
// picture:
//
//   ClusterTraceBoard   bounded per-site event logs fed by Ingest(), with
//                       sequence-gap loss accounting (chunks are
//                       loss-tolerant by construction — a gap is data, not
//                       an error) and a per-site ClockSkewEstimator.
//   MergedClusterTimeline()  every site's shipped events, skew-corrected
//                       onto the coordinator clock, spliced with the
//                       coordinator process's own rings.
//   TimelineToChromeJson()   that timeline as Chrome/Perfetto trace-event
//                       JSON (chrome://tracing, ui.perfetto.dev).
//   FlightRecordToJson()     the post-mortem bundle a failed run dumps:
//                       failure reason, metrics snapshot, health table,
//                       last-N timeline events.
//   AlertEngine         declarative health rules over SiteHealth rows,
//                       evaluated on the health cadence; fires
//                       `obs.alerts.*` counters and kAlert trace events.
//
// Clock skew: processes on one host share a steady_clock epoch, so real
// offsets are tiny — but the estimator does not assume that. It closes the
// NTP four-timestamp loop over two heartbeat legs (the coordinator echoes
// every site heartbeat; the site reflects the echo in its next beat) and
// EWMA-smooths offset = site_clock - coordinator_clock. Correcting a site
// timestamp onto the coordinator clock is therefore t - offset.

#ifndef DSGM_COMMON_TRACING_H_
#define DSGM_COMMON_TRACING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dsgm {

/// EWMA estimate of one site's clock offset relative to the coordinator,
/// from NTP four-timestamp samples:
///
///   T1  coordinator clock when the echo left the coordinator
///   T2  site clock when the echo arrived at the site
///   T3  site clock when the site's next heartbeat left the site
///   T4  coordinator clock when that heartbeat arrived
///
///   offset = site - coordinator = ((T2-T1) + (T3-T4)) / 2
///   rtt    = (T4-T1) - (T3-T2)
///
/// Before the first echo round-trip completes the site sends T1 = T2 = 0;
/// such samples fall back to the one-way estimate T3 - T4, which is biased
/// by the full network delay but still bounds the offset. Single-threaded:
/// owned and advanced by whoever delivers the site's heartbeats.
class ClockSkewEstimator {
 public:
  void AddSample(int64_t t1, int64_t t2, int64_t t3, int64_t t4);

  /// Smoothed offset (site clock minus coordinator clock); 0 until the
  /// first sample.
  int64_t offset_nanos() const { return static_cast<int64_t>(offset_nanos_); }
  /// Smoothed round-trip time; 0 until the first two-way sample.
  int64_t rtt_nanos() const { return static_cast<int64_t>(rtt_nanos_); }
  uint64_t samples() const { return samples_; }
  uint64_t two_way_samples() const { return two_way_samples_; }

 private:
  double offset_nanos_ = 0.0;
  double rtt_nanos_ = 0.0;
  uint64_t samples_ = 0;
  uint64_t two_way_samples_ = 0;
};

/// One event on the merged cluster timeline. `origin` records which process
/// recorded it: -1 for the coordinator process (whose rings also hold the
/// events of in-process site threads), >= 0 for an event shipped from that
/// standalone site process. `event.t_nanos` is already skew-corrected onto
/// the coordinator clock.
struct ClusterTraceEvent {
  TraceEvent event;
  int32_t origin = -1;
};

/// Coordinator-side store for shipped trace chunks: a bounded per-site
/// event log plus sequence accounting and a clock-skew estimator per site.
/// Thread-safe; callers must have validated the chunk's site claim against
/// the connection's authenticated id BEFORE ingesting (same contract as
/// SiteHealthBoard::Update).
class ClusterTraceBoard {
 public:
  /// Newest events retained per site; older ones are dropped (and counted —
  /// a post-hoc reader can tell "quiet site" from "busy site, early events
  /// evicted").
  static constexpr size_t kMaxEventsPerSite = 2048;

  explicit ClusterTraceBoard(int num_sites);

  int num_sites() const { return num_sites_; }

  /// Folds one shipped chunk into `site`'s log. `first_seq` is the site's
  /// global sequence number of events[0]; a gap against the expected next
  /// sequence is counted as shipping loss, an overlap (reconnect replay) is
  /// deduplicated by sequence. Returns false for an out-of-range site.
  bool Ingest(int site, uint64_t first_seq,
              const std::vector<TraceEvent>& events) DSGM_EXCLUDES(mu_);

  /// Feeds one heartbeat's clock samples into `site`'s skew estimator.
  /// T4 (arrival on the coordinator clock) is measured by the caller at
  /// delivery, never read from the wire.
  void AddSkewSample(int site, int64_t t1, int64_t t2, int64_t t3, int64_t t4)
      DSGM_EXCLUDES(mu_);

  /// Smoothed clock offset (site minus coordinator) per site, indexed by
  /// site id.
  std::vector<int64_t> OffsetsNanos() const DSGM_EXCLUDES(mu_);

  /// Events shipped (and retained or evicted) from `site` so far.
  uint64_t EventsIngested(int site) const DSGM_EXCLUDES(mu_);
  /// Events lost before shipping (ring overwrite on the site, detected as
  /// sequence gaps) plus chunks dropped in transit.
  uint64_t EventsLost(int site) const DSGM_EXCLUDES(mu_);
  uint64_t ChunksIngested(int site) const DSGM_EXCLUDES(mu_);

  /// Every site's shipped events skew-corrected onto the coordinator clock,
  /// spliced with the coordinator process's own rings
  /// (MergedTraceTimeline()), sorted by corrected timestamp.
  std::vector<ClusterTraceEvent> MergedClusterTimeline() const
      DSGM_EXCLUDES(mu_);

 private:
  struct SiteLog {
    std::vector<TraceEvent> events;
    uint64_t next_seq = 0;  // expected first_seq of the next chunk
    uint64_t ingested = 0;
    uint64_t lost = 0;
    uint64_t chunks = 0;
    ClockSkewEstimator skew;
  };

  bool InRange(int site) const { return site >= 0 && site < num_sites_; }

  const int num_sites_;
  mutable Mutex mu_;
  std::unique_ptr<SiteLog[]> sites_ DSGM_GUARDED_BY(mu_);
};

/// Renders a merged timeline as Chrome trace-event JSON (the
/// chrome://tracing / Perfetto "JSON Array Format"): one instant event per
/// trace event, grouped into one pid per origin process (pid 0 =
/// coordinator, pid k+1 = site k) with process_name metadata, timestamps in
/// microseconds on the coordinator clock. `offsets_nanos` (indexed by site,
/// may be empty) is embedded under otherData.clock_offsets_nanos so a
/// reader can see what correction was applied.
std::string TimelineToChromeJson(const std::vector<ClusterTraceEvent>& timeline,
                                 const std::vector<int64_t>& offsets_nanos);

/// The post-mortem bundle a failed run dumps (the "flight recorder"):
/// everything a human needs to reconstruct the last moments of a dead run
/// without re-running it.
struct FlightRecord {
  std::string failure_reason;
  /// Metrics + health table at dump time (sites spliced in by the caller).
  MetricsSnapshot metrics;
  /// Last-N merged timeline events (caller trims; newest last).
  std::vector<ClusterTraceEvent> timeline;
  std::vector<int64_t> offsets_nanos;
  uint64_t trace_events_lost = 0;
};

std::string FlightRecordToJson(const FlightRecord& record);

// --- Health alert rules ----------------------------------------------------

/// The declarative rules AlertEngine evaluates. Values are the kAlert trace
/// event's arg, so they are wire-visible: renumbering is a trace format
/// change.
enum class AlertRule : int64_t {
  /// An alive site's heartbeat age exceeded stale_multiplier x the
  /// heartbeat interval — the site is lagging toward the liveness timeout.
  kHeartbeatStale = 1,
  /// A site's sync rate collapsed below collapse_fraction x its own
  /// trailing mean — it stopped answering round advances.
  kSyncRateCollapse = 2,
  /// A site's event rate fell below outlier_fraction x the cluster median —
  /// one straggler starving the round protocol.
  kEventRateOutlier = 3,
};

const char* AlertRuleName(AlertRule rule);

struct Alert {
  int site = -1;
  AlertRule rule = AlertRule::kHeartbeatStale;
  /// The observed value and the threshold it crossed, in the rule's unit
  /// (ms for kHeartbeatStale, events-or-syncs/sec for the rate rules).
  double value = 0.0;
  double threshold = 0.0;
};

struct AlertConfig {
  double heartbeat_interval_ms = 500.0;
  double stale_multiplier = 3.0;
  double collapse_fraction = 0.2;
  double outlier_fraction = 0.2;
  /// Rate rules stay disarmed for this many Evaluate() calls per site, so
  /// startup transients never fire.
  int warmup_ticks = 3;
  /// Reference rates (trailing mean, cluster median) below this never fire
  /// — an idle cluster is not a collapsed one.
  double min_rate_per_sec = 1.0;
};

/// Evaluates the alert rules over successive SiteHealth snapshots. Each
/// firing increments `obs.alerts.<rule>` and `obs.alerts.total` and records
/// a kAlert trace event (arg = rule id). Rules are edge-triggered: a
/// condition fires once when it becomes true and re-arms when it clears.
/// Single-threaded: owned by the one thread that walks the health cadence.
class AlertEngine {
 public:
  explicit AlertEngine(AlertConfig config);

  /// Evaluates every rule against one health snapshot taken at `now_nanos`;
  /// returns the alerts that fired on this tick.
  std::vector<Alert> Evaluate(const std::vector<SiteHealth>& sites,
                              int64_t now_nanos);

  uint64_t alerts_fired() const { return alerts_fired_; }

 private:
  static constexpr int kNumRules = 3;

  struct SiteState {
    int64_t prev_nanos = 0;
    int64_t prev_events = 0;
    uint64_t prev_syncs = 0;
    double sync_rate_ewma = 0.0;
    int ticks = 0;
    bool latched[kNumRules] = {false, false, false};
  };

  void Fire(int site, AlertRule rule, double value, double threshold,
            std::vector<Alert>* out);

  const AlertConfig config_;
  std::vector<SiteState> states_;
  uint64_t alerts_fired_ = 0;
  Counter* const alerts_total_;
  Counter* const alerts_by_rule_[kNumRules];
};

}  // namespace dsgm

#endif  // DSGM_COMMON_TRACING_H_
