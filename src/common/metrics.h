// Process-wide runtime metrics and protocol tracing.
//
// Three instrument kinds, registered by name and updated through handles:
//
//   Counter*   c = MetricsRegistry::Global().GetCounter("net.reactor.wakeups");
//   Gauge*     g = MetricsRegistry::Global().GetGauge("net.reactor.outbox_bytes");
//   Histogram* h = MetricsRegistry::Global().GetHistogram("net.reactor.loop_ns");
//
// Names follow `layer.component.name` (e.g. `cluster.coord.rounds_advanced`);
// histogram names end in a unit suffix (`_ns`). Registration takes the
// registry mutex once; the returned handle is valid for the life of the
// process, and every update through it is a relaxed atomic — no locks, no
// string lookups, no allocation on the hot path. Hot loops amortize further
// by updating at batch granularity (one Add(n) per batch, not per event) so
// eight producers never contend on a metric cache line per event.
//
// OWNERSHIP/RACES: instruments are plain relaxed atomics. Readers
// (Snapshot(), the dumper thread) observe each cell individually-atomic but
// mutually unordered values — a snapshot is a consistent-enough view for
// monitoring, not a linearizable cut. That is the documented contract, so
// none of the hot-path state is (falsely) annotated as lock-guarded.
//
// The trace ring records protocol events (round advances, syncs,
// heartbeats, site cancel/fail, snapshot publish/defer) into fixed-capacity
// per-thread rings with monotonic timestamps; MergedTraceTimeline() splices
// every thread's ring into one time-ordered view. Each slot field is an
// atomic: a dump that races a writer may read a torn (mixed-generation)
// event but never tears a field or trips TSan; dumps taken at quiesce
// points (run end, test asserts) are exact.

#ifndef DSGM_COMMON_METRICS_H_
#define DSGM_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace dsgm {

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

/// Global kill switch (default on). Disabling turns every instrument update
/// and trace record into a single relaxed load + branch; used by
/// bench_ingest_scale to price the instrumentation itself.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// Monotonic event count. Single relaxed fetch_add per update.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;  // ResetForTest zeroes in place
  std::atomic<uint64_t> value_{0};
};

/// Last-written level (queue depth, bytes outstanding, slack remaining).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;  // ResetForTest zeroes in place
  std::atomic<int64_t> value_{0};
};

/// Quantile readout of a Histogram. Quantiles are upper bounds of the
/// log2 bucket the quantile falls in (≤ 2x the true value by construction);
/// max is exact.
struct HistogramStats {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;

  double mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

/// Log2-bucketed latency histogram. Record() is two relaxed fetch_adds, one
/// bucket increment, and a relaxed CAS-max — no locks, constant memory.
/// Bucket i holds values in [2^(i-1), 2^i); values ≥ 2^63 clamp into the
/// last bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!MetricsEnabled()) return;
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  HistogramStats Stats() const;

  /// Bucket index for a value: 0 for 0, otherwise bit_width(value) clamped.
  static int BucketOf(uint64_t value) {
    if (value == 0) return 0;
    return 64 - __builtin_clzll(value) < kBuckets
               ? 64 - __builtin_clzll(value)
               : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket i (reported as the quantile value).
  static uint64_t BucketUpperBound(int bucket) {
    return bucket >= 63 ? ~uint64_t{0} : (uint64_t{1} << bucket) - 1;
  }

 private:
  friend class MetricsRegistry;  // ResetForTest zeroes in place
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One site's row in the coordinator's live health table. Plain data —
/// produced by SiteHealthBoard::Snapshot(), shipped in MetricsSnapshot.
struct SiteHealth {
  int site = -1;
  bool alive = false;
  /// Milliseconds since the coordinator last heard anything from the site
  /// (any frame counts, exactly like the liveness clock). Negative until
  /// the site's hello is accepted.
  double heartbeat_age_ms = -1.0;
  int64_t events_processed = 0;
  /// kReports bundles sent (each covers up to 64 events), not counter
  /// reports.
  uint64_t updates_sent = 0;
  uint64_t syncs_sent = 0;
  uint64_t rounds_seen = 0;
  /// Telemetry frames (kHeartbeat, each carrying stats) received from this
  /// site; in-process sites count health samples instead.
  uint64_t stats_reports = 0;
};

/// Coordinator-side per-site health table, fed by telemetry frames
/// (kHeartbeat). Lock-free: each cell is a relaxed atomic written by
/// the reactor loop (kLocalTcp) or the site threads themselves (kThreads)
/// and read by snapshotters; same consistency contract as the instruments.
class SiteHealthBoard {
 public:
  explicit SiteHealthBoard(int num_sites);

  int num_sites() const { return num_sites_; }

  /// Any frame arrived from `site` at `now_nanos` — resets the heartbeat
  /// age and (re)marks the site alive.
  void Touch(int site, int64_t now_nanos);
  /// A stats sample from `site`: the telemetry frame of the connection
  /// whose hello named `site`.
  void Update(int site, int64_t events_processed, uint64_t updates_sent,
              uint64_t syncs_sent, uint64_t rounds_seen);
  /// Liveness declared the site dead (or the protocol cancelled it).
  void MarkDead(int site);

  std::vector<SiteHealth> Snapshot(int64_t now_nanos) const;

 private:
  struct Slot {
    std::atomic<int64_t> last_rx_nanos{-1};
    std::atomic<bool> alive{false};
    std::atomic<int64_t> events_processed{0};
    std::atomic<uint64_t> updates_sent{0};
    std::atomic<uint64_t> syncs_sent{0};
    std::atomic<uint64_t> rounds_seen{0};
    std::atomic<uint64_t> stats_reports{0};
  };

  bool InRange(int site) const { return site >= 0 && site < num_sites_; }

  const int num_sites_;
  std::unique_ptr<Slot[]> slots_;
};

/// Structured point-in-time view of every registered instrument, plus the
/// per-site health table when a cluster session attached one. Entries are
/// sorted by name so successive snapshots diff cleanly.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramStats stats;
  };

  int64_t captured_nanos = 0;
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SiteHealth> sites;

  const CounterValue* FindCounter(const std::string& name) const;
  const GaugeValue* FindGauge(const std::string& name) const;
  const HistogramValue* FindHistogram(const std::string& name) const;
};

/// One line of compact JSON (no newline), the `--metrics-dump-ms` format:
/// {"t_ms":..,"counters":{..},"gauges":{..},"histograms":{..},"sites":[..]}
/// Rendered human-readable by tools/metrics_text.py.
std::string MetricsSnapshotToJsonLine(const MetricsSnapshot& snapshot);

/// Process-wide instrument registry. Get* registers on first use (mutex,
/// cold path) and returns the same handle for the same name thereafter, so
/// independent components share instruments by naming convention alone.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name) DSGM_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) DSGM_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) DSGM_EXCLUDES(mu_);

  /// Snapshot of every registered instrument (sites left empty; sessions
  /// splice in their board). Relaxed reads — see the header comment.
  MetricsSnapshot Snapshot() const DSGM_EXCLUDES(mu_);

  /// Test hook: zero every counter/gauge/histogram cell in place (handles
  /// stay valid). Races with concurrent writers are benign-by-contract.
  void ResetForTest() DSGM_EXCLUDES(mu_);

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable Mutex mu_;
  // std::map: stable element addresses across inserts (handles are pointers
  // into the mapped values) and name-sorted iteration for Snapshot().
  std::map<std::string, Counter> counters_ DSGM_GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ DSGM_GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ DSGM_GUARDED_BY(mu_);
};

// --- Protocol trace ring ---------------------------------------------------

enum class TraceEventType : uint8_t {
  kNone = 0,  // unwritten slot
  kRoundAdvance = 1,
  kSyncMessage = 2,
  kHeartbeat = 3,
  kStatsReport = 4,
  kSiteCancelled = 5,
  kSiteFailed = 6,
  kSnapshotPublish = 7,
  kSnapshotDefer = 8,
  kProtocolViolation = 9,
  kAlert = 10,  // a health alert rule fired (arg = rule id)
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  int64_t t_nanos = 0;
  TraceEventType type = TraceEventType::kNone;
  /// Site id the event concerns, or -1.
  int32_t site = -1;
  /// Type-specific payload: round number for kRoundAdvance/kSyncMessage,
  /// publish latency in nanos for kSnapshotPublish, 0 otherwise.
  int64_t arg = 0;
};

inline bool operator==(const TraceEvent& a, const TraceEvent& b) {
  return a.t_nanos == b.t_nanos && a.type == b.type && a.site == b.site &&
         a.arg == b.arg;
}

/// Fixed-capacity single-writer event ring. The owning thread Record()s;
/// overflow overwrites the oldest slot, so the ring always holds the newest
/// kCapacity events. Snapshot() from any thread returns oldest-first.
class TraceRing {
 public:
  static constexpr size_t kCapacity = 1024;

  TraceRing() = default;
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(TraceEventType type, int32_t site, int64_t arg) {
    if (!MetricsEnabled()) return;
    const uint64_t n = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[n % kCapacity];
    slot.t_nanos.store(NowNanos(), std::memory_order_relaxed);
    slot.site.store(site, std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    slot.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
    head_.store(n + 1, std::memory_order_release);
  }

  std::vector<TraceEvent> Snapshot() const;

  /// Total events ever recorded (monotone). The natural shipping cursor:
  /// events [head - kCapacity, head) are the ones still resident.
  uint64_t head() const { return head_.load(std::memory_order_acquire); }

  /// Copies events at absolute positions [begin, end) oldest-first,
  /// skipping unwritten slots. The caller must clamp `begin` to at least
  /// head() - kCapacity; slots racing a live writer follow the same
  /// benign-tear contract as Snapshot().
  void CopyRange(uint64_t begin, uint64_t end,
                 std::vector<TraceEvent>* out) const;

 private:
  struct Slot {
    std::atomic<int64_t> t_nanos{0};
    std::atomic<int64_t> arg{0};
    std::atomic<int32_t> site{-1};
    std::atomic<uint8_t> type{0};
  };

  std::atomic<uint64_t> head_{0};
  Slot slots_[kCapacity] = {};
};

/// The calling thread's trace ring, lazily created and registered with the
/// global trace log (rings outlive their threads; a dump after join sees
/// every event).
TraceRing* ThreadTraceRing();

/// Record a protocol event into the calling thread's ring. No-op when
/// metrics are disabled — checked before the thread-local lookup.
inline void Trace(TraceEventType type, int32_t site, int64_t arg) {
  if (!MetricsEnabled()) return;
  ThreadTraceRing()->Record(type, site, arg);
}

/// Every thread's ring spliced into one timeline, sorted by timestamp.
std::vector<TraceEvent> MergedTraceTimeline();

/// Incremental-drain position over the global trace log (all threads'
/// rings), for shipping trace events off the process in loss-tolerant
/// chunks. `next_seq` is a process-global monotone sequence number that
/// advances once per drained AND per overwritten-before-drained event, so
/// a receiver detects loss as a gap between chunks without any
/// retransmission machinery. Single-owner: one cursor belongs to one
/// draining thread.
struct TraceDrainCursor {
  std::vector<uint64_t> positions;  // per-ring drained-up-to heads
  uint64_t next_seq = 0;
  uint64_t dropped = 0;  // cumulative events lost to ring overwrite
};

/// Appends every event recorded since `cursor` (across all threads' rings,
/// time-sorted) to `out` and advances the cursor. Returns the number of
/// events appended; `*first_seq` receives the global sequence number of
/// the first appended event (meaningful only when the return is > 0).
size_t DrainTraceEvents(TraceDrainCursor* cursor, std::vector<TraceEvent>* out,
                        uint64_t* first_seq);

/// Human-readable one-event-per-line rendering of a timeline.
std::string FormatTraceTimeline(const std::vector<TraceEvent>& timeline);

// --- Periodic dumper -------------------------------------------------------

/// Background thread that emits MetricsSnapshotToJsonLine(fn()) + '\n' to
/// `out` every `period_ms`, plus one final line on Stop(). Backs the
/// Session `--metrics-dump-ms` / `WithMetricsDump` option.
class MetricsDumper {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;

  MetricsDumper(int period_ms, std::ostream* out, SnapshotFn fn);
  ~MetricsDumper();

  /// Emits the final snapshot line and joins the thread. Idempotent.
  void Stop();

 private:
  void Loop();
  void EmitLine();

  const int period_ms_;
  std::ostream* const out_;
  const SnapshotFn fn_;
  Mutex mu_;
  CondVar cv_;
  bool stop_ DSGM_GUARDED_BY(mu_) = false;
  // Serializes EmitLine between the loop thread and Stop's final dump.
  Mutex emit_mu_;
  std::thread thread_;
};

}  // namespace dsgm

#endif  // DSGM_COMMON_METRICS_H_
