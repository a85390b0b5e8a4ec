// The public entry point of dsgm: one Session API over every substrate the
// paper's protocol runs on.
//
// A Session continuously maintains the approximate MLE of a known-structure
// Bayesian network over a distributed event stream (Algorithms 1-3) and —
// the paper's defining capability — answers model queries at ANY point
// while the stream flows: Snapshot() returns a consistent, immutable
// ModelView without pausing ingestion.
//
//   SessionBuilder builder(network);
//   auto session = builder.WithBackend(Backend::kThreads)
//                      .WithStrategy(TrackingStrategy::kNonUniform)
//                      .WithEpsilon(0.1)
//                      .WithSites(10)
//                      .Build();                       // StatusOr
//   (*session)->StreamGroundTruth(100000);             // or Push / Drain
//   ModelView live = *(*session)->Snapshot();          // query mid-run
//   RunReport report = *(*session)->Finish();          // join + validate
//
// Concurrency. Push, PushBatch, Drain, and Snapshot may be called from any
// number of threads simultaneously: every calling thread is lazily assigned
// its own ingest shard (a private router plus per-site staged batches —
// src/api/sharded_router.h), so concurrent producers share no lock on the
// hot path. Each shard routes its events to uniformly random sites (the
// paper's arrival model) and hands full batches to the sites over its own
// single-producer lanes. A shard also delivers every staged batch once its
// oldest one is k × 0.5 ms old (k sites; internal::kStagingDelayPerSiteNanos),
// checked on the owner's own pushes — so a producer that keeps pushing,
// however slowly, sees its events reach the sites within that bound. Events
// staged in another thread's shard count as in-flight for Snapshot(), which
// reflects the CALLING thread's accepted events plus whatever the sites have
// absorbed. A producer that stops pushing altogether holds its staged
// events until its next Push, its Snapshot, its thread's exit or Finish: a
// producer thread that exits parks its staged events with the session, and
// the next Snapshot or Finish (from any thread) delivers them.
// StreamGroundTruth shares one sampler and remains single-caller, and
// Finish() must be called after every pushing thread has been joined (or
// otherwise synchronized-with): it flushes all shards and closes the
// stream. The network must outlive the session.

#ifndef DSGM_INCLUDE_DSGM_SESSION_H_
#define DSGM_INCLUDE_DSGM_SESSION_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bayes/network.h"
#include "bayes/sampler.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/tracker_config.h"
#include "dsgm/event_source.h"
#include "dsgm/model_view.h"
#include "dsgm/report.h"
#include "net/cluster_transport.h"

namespace dsgm {

class Session;

namespace internal {

/// A producer's staged events leave its shard within k × this bound
/// (k = number of sites), or up to kPushesPerClockRead pushes later: once a
/// shard's oldest staged batch is that old, the shard delivers every staged
/// batch. Scaling with k keeps a shard that fills a batch per site faster
/// than the bound (>= 512k events/s at batch 256) from ever aging one out,
/// and caps age flushes at 2000 batch deliveries per second per shard.
constexpr int64_t kStagingDelayPerSiteNanos = 500'000;
/// While anything is staged, the owner reads the clock when a batch starts
/// and on every this-many pushes, never per push.
constexpr int kPushesPerClockRead = 8;
constexpr int64_t kNothingStaged = INT64_MAX;

/// One ingest caller's private state: the routing Rng, the per-site staged
/// batches, and the per-site delivery lanes the backend binds lazily.
/// Shards are created on a thread's first Push into a session and live in
/// that thread's local cache plus the session's registry; `retired` flags
/// dead sessions' shards so long-lived threads prune their caches. When a
/// producer thread exits before the session finishes, its cache entry's
/// destructor parks the shard as an orphan; the session's next Snapshot or
/// Finish flush delivers the staged batches and releases the staging
/// buffers, so an exited thread's events are never stranded until Finish.
struct IngestShard {
  uint64_t session_id = 0;
  int index = 0;  // 0 = first registered; it carries the legacy routing Rng.
  Rng router;
  /// `router`, `pending`, and `lanes` are OWNERSHIP-guarded, not
  /// lock-guarded: while the owner thread lives, only it touches them (the
  /// per-event staging hot path must stay lock-free), so they carry no
  /// GUARDED_BY. The flush paths that do cross threads (Finish/Snapshot vs
  /// the owner's exit flush) serialize on `flush_mu`, and the orphan
  /// handoff itself publishes with a happens-before edge (the orphans
  /// mutex), so post-exit flushes see the owner's final writes.
  std::vector<EventBatch> pending;           // staged events, one per site
  std::vector<Channel<EventBatch>*> lanes;   // backend-bound, one per site
  /// Staging bound, owner-only like `pending`. `staged_since[s]` is when
  /// site s's batch got its first event (meaningful while it is non-empty);
  /// `oldest_staged` caches their minimum (kNothingStaged when the shard
  /// is empty) and may be stale — older than the true oldest — once its
  /// batch filled and left; `unclocked_pushes` counts pushes since the
  /// last clock read.
  std::vector<int64_t> staged_since;
  int64_t oldest_staged = kNothingStaged;
  int unclocked_pushes = 0;
  std::atomic<bool> retired{false};
  /// Serializes the flush paths (Finish's flush-all vs the owner thread's
  /// exit flush). The staging hot path takes no lock: only the owner
  /// thread mutates `pending` while it lives.
  Mutex flush_mu;
};

/// Shared liveness handle between a session and the thread-local shard
/// caches: the session nulls `session` under `mu` at destruction, so an
/// exiting producer thread can safely flush into a still-live session and
/// quietly skip a dead one.
struct SessionLiveHandle {
  Mutex mu;
  Session* session DSGM_GUARDED_BY(mu) = nullptr;
};

/// Thread-exit hook of a shard cache entry (see IngestShard): parks the
/// shard as an orphan for the session's next Snapshot/Finish flush. It
/// must not deliver batches itself — TLS destructor order is unspecified,
/// so transport code (with its own thread_locals) cannot run here.
void FlushShardOnThreadExit(Session* session,
                            const std::shared_ptr<IngestShard>& shard);

}  // namespace internal

class Session {
 public:
  virtual ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Feeds one training instance; the calling thread's shard routes it to a
  /// uniformly random site (the paper's arrival model). Validates domain
  /// bounds. Thread-safe: any number of producer threads may push into one
  /// session concurrently. Fails with kFailedPrecondition after Finish().
  Status Push(const Instance& event);

  /// Push() in bulk. Thread-safe like Push.
  Status PushBatch(const std::vector<Instance>& events);

  /// Pulls `source` until it is exhausted, pushing every instance. The
  /// source itself is driven by the calling thread only.
  Status Drain(EventSource* source);

  /// Convenience for simulations: samples `num_events` instances from the
  /// session network's ground-truth CPDs and pushes them. The sampler
  /// persists across calls, so successive calls continue one stream —
  /// stream 10k, Snapshot(), stream 90k more, and the session has seen
  /// 100k distinct events. Deterministic in the tracker seed. Single-caller
  /// (one shared sampler); concurrent Push from other threads is fine.
  Status StreamGroundTruth(int64_t num_events);

  /// Queryable model snapshot at this instant — Algorithm 3's QUERY while
  /// the run is live. Thread-safe, and on the cluster backends it never
  /// blocks the protocol: the coordinator publishes into a double-buffered
  /// epoch snapshot at batch boundaries and Snapshot() reads the stable
  /// buffer. The calling thread's staged dispatch batches are flushed to
  /// the sites first, so the view reflects every event this thread pushed.
  /// Other threads' staged batches count as in-flight; a thread that keeps
  /// pushing delivers its own within k × 0.5 ms (see the header's
  /// Concurrency paragraph), an idle one only at its next Push, Snapshot or
  /// exit, or at Finish. After a
  /// successful Finish() it returns the final model; after a failed one,
  /// an error.
  virtual StatusOr<ModelView> Snapshot() = 0;

  /// Closes the stream, runs the protocol to completion, joins every
  /// backend thread, and returns the unified report (timing, communication,
  /// validation against exact counts, final model). Call exactly once,
  /// after every pushing and snapshotting thread has been joined (or
  /// otherwise synchronized-with): Finish flushes ALL shards' staged
  /// batches and publishes the final model, which is only safe once those
  /// threads have quiesced.
  virtual StatusOr<RunReport> Finish() = 0;

  Backend backend() const { return backend_; }
  const BayesianNetwork& network() const { return *network_; }
  /// Events accepted so far (some may still be staged or in flight to the
  /// sites). Thread-safe.
  int64_t events_pushed() const {
    return events_pushed_.load(std::memory_order_relaxed);
  }

  /// Structured snapshot of the process-wide metrics registry
  /// (common/metrics.h) — counters, gauges, latency histograms; the cluster
  /// backends splice in their live per-site health table (heartbeat ages,
  /// per-site event/sync/round progress). Thread-safe, callable mid-run;
  /// deliberately separate from Snapshot() so model queries never pay for a
  /// registry walk.
  virtual MetricsSnapshot Metrics() const;

 protected:
  /// `stream_seed` seeds StreamGroundTruth's sampler; `router_seed` the
  /// uniform site routing. Backends derive both from the tracker seed with
  /// the same schedule the legacy free-function drivers used, so identical
  /// configs produce identical streams on every backend. `batch_size` is
  /// the per-shard staging bound: a shard hands a site its batch once it
  /// holds this many events (1 = deliver per event), or sooner once the
  /// shard's oldest staged batch is num_sites × kStagingDelayPerSiteNanos
  /// old.
  Session(Backend backend, const BayesianNetwork& network, int num_sites,
          int batch_size, uint64_t stream_seed, uint64_t router_seed);

  /// Backend-specific delivery of one full routed batch. Must be safe to
  /// call from any number of producer threads concurrently; `shard` is the
  /// calling thread's shard (its `lanes` entry for `site` is the backend's
  /// to bind and reuse). `batch` is the shard's staging slot: a backend
  /// that keeps the events moves from it, one that only reads them leaves
  /// the buffer to be reused for the next batch.
  virtual Status DeliverBatch(internal::IngestShard& shard, int site,
                              EventBatch&& batch) = 0;

  /// The calling thread's shard, created and registered on first use.
  internal::IngestShard* CurrentShard();

  /// Delivers every staged batch of `shard` (serialized on the shard's
  /// flush mutex against the thread-exit flush).
  Status FlushShard(internal::IngestShard* shard)
      DSGM_EXCLUDES(shard->flush_mu);
  /// Flushes the calling thread's shard, if it has one (Snapshot path).
  Status FlushCallerShard();
  /// Flushes every registered shard. Only safe once all producer threads
  /// have quiesced with a happens-before edge to the caller (Finish path).
  Status FlushAllShards() DSGM_EXCLUDES(shards_mu_, orphans_mu_);

  int num_sites() const { return num_sites_; }
  int batch_size() const { return batch_size_; }

  /// Starts the periodic metrics dump thread (SessionOptions::
  /// metrics_dump_ms). Derived backends call this once their snapshot
  /// source is live — NOT from the base constructor, since `fn` usually
  /// captures derived state. No-op when period_ms <= 0.
  void StartMetricsDump(int period_ms, std::ostream* out,
                        MetricsDumper::SnapshotFn fn);
  /// Emits the final dump line and joins the thread. Idempotent; derived
  /// backends whose dump fn captures derived state must call this in their
  /// own teardown, before that state dies.
  void StopMetricsDump();

  std::atomic<bool> finished_{false};
  std::atomic<int64_t> events_pushed_{0};

 private:
  friend void internal::FlushShardOnThreadExit(
      Session* session, const std::shared_ptr<internal::IngestShard>& shard);

  internal::IngestShard* RegisterShard() DSGM_EXCLUDES(shards_mu_);
  Status FlushShardLocked(internal::IngestShard* shard)
      DSGM_REQUIRES(shard->flush_mu);
  /// Hands site `site`'s staged batch (non-empty) to DeliverBatch and
  /// re-arms the staging buffer: the one delivery step of full batches,
  /// aged batches and flushes.
  Status DeliverStaged(internal::IngestShard* shard, int site);
  /// Owner-only, at a clock reading `now`: recomputes the shard's oldest
  /// stamp and, when it is staging_delay_nanos_ old, delivers every staged
  /// batch.
  Status DeliverAgedBatches(internal::IngestShard* shard, int64_t now)
      DSGM_EXCLUDES(shard->flush_mu);
  /// Delivers (and releases the buffers of) shards whose owner threads
  /// exited; runs on the Snapshot and Finish flush paths.
  Status FlushOrphanedShards() DSGM_EXCLUDES(orphans_mu_);
  Status StageRouted(internal::IngestShard* shard, const Instance& event);

  Backend backend_;
  const BayesianNetwork* network_;
  int num_sites_;
  int batch_size_;
  int64_t staging_delay_nanos_;  // num_sites × kStagingDelayPerSiteNanos
  uint64_t stream_seed_;
  uint64_t router_seed_;
  uint64_t id_;
  std::unique_ptr<ForwardSampler> ground_truth_;  // lazy, StreamGroundTruth
  /// Shard registry: touched only on a thread's first push (registration),
  /// at Finish (flush-all), and at destruction (retire) — never on the
  /// per-event path.
  Mutex shards_mu_;
  std::vector<std::shared_ptr<internal::IngestShard>> shards_
      DSGM_GUARDED_BY(shards_mu_);
  std::shared_ptr<internal::SessionLiveHandle> live_;
  /// Shards parked by exited producer threads, awaiting delivery.
  Mutex orphans_mu_;
  std::vector<std::shared_ptr<internal::IngestShard>> orphaned_shards_
      DSGM_GUARDED_BY(orphans_mu_);
  std::unique_ptr<MetricsDumper> metrics_dumper_;
};

/// Everything a SessionBuilder can configure. Builders validate on Build();
/// the struct is public so callers can also fill it wholesale.
struct SessionOptions {
  Backend backend = Backend::kInProcess;
  /// Strategy, epsilon, num_sites, seed, replicas, ... (core/tracker_config.h).
  TrackerConfig tracker;
  /// Largest dispatch batch on the cluster backends, in events. A producer
  /// hands a site its batch once it holds this many events, or earlier once
  /// the producer's oldest staged batch is num_sites × 0.5 ms old. On
  /// kThreads and kLocalTcp, batch_size × num_variables × 4 bytes must fit
  /// one wire frame (64 MiB, kMaxFramePayload); Build() rejects more.
  int batch_size = 256;
  /// kThreads only: plumbing override (e.g. MakeReactorTransport to run
  /// the threaded cluster over real sockets). Empty = in-process loopback.
  TransportFactory transport;
  /// kLocalTcp only: listen port (0 = ephemeral) and optional file the
  /// bound port is atomically published to (for scripts).
  int listen_port = 0;
  std::string port_file;
  /// kLocalTcp only: listener bind address. The default binds loopback
  /// only; "0.0.0.0" (or a specific interface address) accepts dsgm_site
  /// processes from other hosts — the multi-host deployment posture.
  std::string bind_address = "127.0.0.1";
  /// kLocalTcp only: expect `tracker.num_sites` external dsgm_site
  /// processes to connect instead of spawning in-process site threads.
  /// Build() then blocks until all sites complete the hello handshake.
  bool external_sites = false;
  /// kLocalTcp internal sites: how long each site retries its connect.
  int site_connect_timeout_ms = 10000;
  /// kLocalTcp only: per-site liveness deadline, enforced by the
  /// coordinator's reactor I/O thread. A site that sends no traffic (not
  /// even a kHeartbeat) for this long — or whose connection drops mid-run —
  /// is declared dead and the run fails with an UNAVAILABLE status naming
  /// the site (the FailRun policy): outstanding syncs are cancelled and
  /// every session call reports the failure instead of stalling forever.
  /// 0 disables liveness (a dead site can then stall the run).
  int liveness_timeout_ms = 5000;
  /// kLocalTcp internal sites: heartbeat cadence of the in-process site
  /// threads. Must stay below liveness_timeout_ms. External dsgm_site
  /// processes configure their own cadence (--heartbeat-ms).
  int heartbeat_interval_ms = 500;
  /// 0 disables (the default). >0: a background thread emits one line of
  /// compact JSON (MetricsSnapshotToJsonLine — every registered counter,
  /// gauge, and latency histogram, plus the cluster backends' per-site
  /// health table) every this-many milliseconds, and a final line when the
  /// session finishes or is torn down. Render with tools/metrics_text.py.
  int metrics_dump_ms = 0;
  /// Where the dump lines go; nullptr means std::cerr.
  std::ostream* metrics_dump_stream = nullptr;
  /// kLocalTcp only: empty disables (the default). A path: Finish() writes
  /// the merged, skew-corrected cluster timeline there as Chrome/Perfetto
  /// trace-event JSON (chrome://tracing, ui.perfetto.dev). Covers the
  /// coordinator process AND every site — external dsgm_site processes ship
  /// their trace rings over kTraceChunk frames; in-process site threads
  /// share the coordinator's rings. RunReport::trace_path records where it
  /// landed.
  std::string trace_out;
  /// kLocalTcp only: empty disables (the default). A directory: when the
  /// run fails (a site dies, a protocol violation, a liveness timeout), the
  /// coordinator dumps a post-mortem bundle — failure reason, final metrics
  /// + health table, the last merged trace events — to
  /// <dir>/dsgm_postmortem.json (the "flight recorder").
  std::string postmortem_dir;
};

class SessionBuilder {
 public:
  /// The network provides the structure and domain sizes; its CPDs are
  /// only read by StreamGroundTruth/MakeSamplerSource (they are what the
  /// session learns). Must outlive the built session.
  explicit SessionBuilder(const BayesianNetwork& network);

  /// Replaces the whole configuration at once; the With* setters below
  /// tweak individual fields on top.
  SessionBuilder& WithOptions(const SessionOptions& options);

  SessionBuilder& WithBackend(Backend backend);
  SessionBuilder& WithTracker(const TrackerConfig& tracker);
  SessionBuilder& WithStrategy(TrackingStrategy strategy);
  SessionBuilder& WithCounterType(CounterType type);
  SessionBuilder& WithEpsilon(double epsilon);
  SessionBuilder& WithSites(int num_sites);
  SessionBuilder& WithSeed(uint64_t seed);
  SessionBuilder& WithBatchSize(int batch_size);
  SessionBuilder& WithTransport(TransportFactory transport);
  SessionBuilder& WithListenPort(int port);
  SessionBuilder& WithPortFile(std::string path);
  SessionBuilder& WithBindAddress(std::string address);
  SessionBuilder& WithExternalSites();
  SessionBuilder& WithSiteConnectTimeout(int timeout_ms);
  /// 0 disables per-site liveness; see SessionOptions::liveness_timeout_ms.
  SessionBuilder& WithLivenessTimeout(int timeout_ms);
  SessionBuilder& WithHeartbeatInterval(int interval_ms);
  /// Periodic one-line JSON metrics dump every `period_ms` (0 disables);
  /// `out` nullptr means std::cerr. See SessionOptions::metrics_dump_ms.
  SessionBuilder& WithMetricsDump(int period_ms, std::ostream* out = nullptr);
  /// Chrome-trace JSON of the merged cluster timeline, written by Finish().
  /// See SessionOptions::trace_out.
  SessionBuilder& WithTraceExport(std::string path);
  /// Directory for the failed-run post-mortem bundle. See
  /// SessionOptions::postmortem_dir.
  SessionBuilder& WithPostmortemDir(std::string dir);

  const SessionOptions& options() const { return options_; }

  /// Validates the configuration and spins up the backend (threads,
  /// sockets, listeners). For kLocalTcp with WithExternalSites() this
  /// blocks until every site process has connected.
  StatusOr<std::unique_ptr<Session>> Build() const;

 private:
  const BayesianNetwork* network_;
  SessionOptions options_;
};

}  // namespace dsgm

#endif  // DSGM_INCLUDE_DSGM_SESSION_H_
