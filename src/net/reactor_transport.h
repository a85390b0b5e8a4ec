// The socket cluster transport: ONE I/O thread (per endpoint group) owns
// every connection of that group. Nonblocking framed reads and writes run
// on a net/reactor.h event loop; each connection keeps a per-connection
// outbox buffer (staged by any thread, drained by the loop, so frames
// staged between two loop wakeups leave in one write) and per-lane inboxes
// with receiver-driven flow control (a full inbox pauses reading THAT
// socket, never the loop).
//
// Both ends of a connection are ReactorConnections. The coordinator side
// runs under a ReactorCoordinator (one loop for every site); a site
// process dials out, sends its hello with SendHelloBlocking, and serves its
// SiteNode through a client-side ReactorConnection (receive_direction =
// kCoordinatorToSite) on a loop of its own — see cluster/remote_runner.h.
//
// On top of the loop sits the liveness protocol: sites send kHeartbeat
// telemetry frames (net/codec.h) on an interval, the coordinator arms a per-site
// deadline timer, and a site that goes silent past the timeout — or whose
// connection drops mid-run — is declared dead with an UNAVAILABLE status
// naming the site. The session layer's default policy (FailRun) cancels
// the dead site's outstanding syncs and fails the run instead of stalling
// the protocol forever.
//
// Deadlock discipline: RoundAdvance and kChannelClose sends bypass the
// outbox backpressure cap. The coordinator thread is the sole consumer of
// the merged update queue; if it could block staging a command while that
// queue is full, the cycle coordinator -> outbox -> site socket -> site
// inboxes -> site updates -> merged queue -> coordinator would deadlock the
// cluster. Commands are protocol-bounded (at most counters x rounds
// frames), so the exemption cannot grow the outbox without bound. EventBatch
// and UpdateBundle pushes block on the cap — that is the transport's
// backpressure, mirroring the loopback queues.
//
// Concurrency contracts are compile-checked: loop-only state is guarded by
// the reactor's `loop_role` capability, the cross-thread outbox by
// `outbox_mu_` (see common/thread_annotations.h).

#ifndef DSGM_NET_REACTOR_TRANSPORT_H_
#define DSGM_NET_REACTOR_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/tracing.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/channel.h"
#include "net/codec.h"
#include "net/protocol_spec.h"
#include "net/reactor.h"
#include "net/tcp_socket.h"
#include "net/wire.h"

namespace dsgm {

enum class FlowPush { kOk, kFull, kClosed };

/// Shared across every FlowQueue instantiation: how often a loop-side
/// delivery found an inbox full (each reject pauses that socket's reads).
inline Counter* FlowQueueFullRejects() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("net.flowqueue.full_rejects");
  return counter;
}

/// A bounded MPMC queue shaped for an event loop producer: pushes never
/// block (TryPush reports kFull) and the first pop that frees space after a
/// failed push fires a registered callback — the loop uses it to resume
/// reading a paused socket. Pop/close semantics match common/queue.h's
/// BoundedQueue (PopBatch blocks until data or close, then drains).
template <typename T>
class FlowQueue {
 public:
  explicit FlowQueue(size_t capacity) : capacity_(capacity) {}

  FlowQueue(const FlowQueue&) = delete;
  FlowQueue& operator=(const FlowQueue&) = delete;

  /// Set before any concurrent use (which is why it needs no guard).
  /// Invoked on the popping (or closing) thread, outside the queue lock.
  void set_space_callback(std::function<void()> fn) { space_cb_ = std::move(fn); }

  /// Moves from `item` only on kOk; on kFull (or kClosed) the caller's
  /// object is left intact, so the event loop can hold the frame and
  /// re-deliver it once the space callback fires.
  FlowPush TryPush(T&& item) DSGM_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      if (closed_) return FlowPush::kClosed;
      if (items_.size() >= capacity_) {
        starving_ = true;
        FlowQueueFullRejects()->Increment();
        return FlowPush::kFull;
      }
      items_.push_back(std::move(item));
    }
    not_empty_.NotifyOne();
    return FlowPush::kOk;
  }

  size_t PopBatch(std::vector<T>* out, size_t max_items) DSGM_EXCLUDES(mu_) {
    Take take;
    {
      MutexLock lock(&mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(&lock);
      take = TakeLocked(out, max_items);
    }
    NotifyAfterTake(take);
    return take.count;
  }

  size_t TryPopBatch(std::vector<T>* out, size_t max_items)
      DSGM_EXCLUDES(mu_) {
    Take take;
    {
      MutexLock lock(&mu_);
      take = TakeLocked(out, max_items);
    }
    NotifyAfterTake(take);
    return take.count;
  }

  /// After Close, pushes fail and pops drain then report 0. Also fires the
  /// space callback if a producer was paused on this queue: a reader
  /// waiting to deliver into a queue that will never drain must resume (and
  /// drop) rather than stay paused forever.
  void Close() DSGM_EXCLUDES(mu_) {
    bool fire = false;
    {
      MutexLock lock(&mu_);
      closed_ = true;
      fire = starving_;
      starving_ = false;
    }
    not_empty_.NotifyAll();
    if (fire && space_cb_) space_cb_();
  }

  bool closed() const DSGM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const DSGM_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

 private:
  struct Take {
    size_t count = 0;
    bool fire = false;
  };

  Take TakeLocked(std::vector<T>* out, size_t max_items) DSGM_REQUIRES(mu_) {
    Take take;
    take.count = std::min(max_items, items_.size());
    for (size_t i = 0; i < take.count; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    take.fire = starving_ && take.count > 0 && items_.size() < capacity_;
    if (take.fire) starving_ = false;
    return take;
  }

  void NotifyAfterTake(const Take& take) {
    if (take.count > 0) not_empty_.NotifyAll();
    if (take.fire && space_cb_) space_cb_();
  }

  mutable Mutex mu_;
  CondVar not_empty_;
  std::deque<T> items_ DSGM_GUARDED_BY(mu_);
  size_t capacity_;
  bool closed_ DSGM_GUARDED_BY(mu_) = false;
  bool starving_ DSGM_GUARDED_BY(mu_) = false;
  std::function<void()> space_cb_;
};

/// Receive-only Channel view over a FlowQueue — the coordinator's merged
/// update stream. Push aborts: every producer reaches the queue through a
/// socket, never through this endpoint.
template <typename T>
class FlowChannel : public Channel<T> {
 public:
  explicit FlowChannel(FlowQueue<T>* queue) : queue_(queue) {}

  bool Push(T) override {
    DSGM_CHECK(false) << "FlowChannel is receive-only";
    return false;
  }
  size_t PopBatch(std::vector<T>* out, size_t max_items) override {
    return queue_->PopBatch(out, max_items);
  }
  size_t TryPopBatch(std::vector<T>* out, size_t max_items) override {
    return queue_->TryPopBatch(out, max_items);
  }
  void Close() override { queue_->Close(); }

 private:
  FlowQueue<T>* queue_;
};

class ReactorConnection;

/// One logical lane of a ReactorConnection: Push stages the encoded frame
/// in the connection outbox (the loop writes it), PopBatch reads the lane's
/// inbox (the loop fills it).
template <typename T>
class ReactorChannel : public Channel<T> {
 public:
  ReactorChannel(ReactorConnection* connection, FrameType type,
                 FlowQueue<T>* inbox)
      : connection_(connection), type_(type), inbox_(inbox) {}

  bool Push(T item) override;
  size_t PopBatch(std::vector<T>* out, size_t max_items) override {
    return inbox_->PopBatch(out, max_items);
  }
  size_t TryPopBatch(std::vector<T>* out, size_t max_items) override {
    return inbox_->TryPopBatch(out, max_items);
  }
  void Close() override;

 private:
  ReactorConnection* connection_;
  FrameType type_;
  FlowQueue<T>* inbox_;
  std::atomic<bool> send_closed_{false};
};

/// A framed, bidirectional cluster connection multiplexed on a Reactor.
/// All I/O runs on the reactor loop; SendFrame may be called from any
/// thread (it stages bytes and wakes the loop).
class ReactorConnection {
 public:
  struct Options {
    /// Inbox bounds, matching the loopback queue capacities so every
    /// transport exerts the same backpressure. Event inboxes hold batches
    /// and update inboxes hold kReports bundles of up to
    /// kMaxEventsPerReportBundle events each, so kUpdateQueueCapacity keeps
    /// about 8192 events of reports in flight, not 8192 bundles.
    size_t event_capacity = 64;
    size_t command_capacity = 1 << 16;
    size_t update_capacity = kUpdateQueueCapacity;
    /// Staged-but-unwritten byte cap per connection; non-exempt pushes
    /// block while it is exceeded (a single frame larger than the cap is
    /// still accepted once the outbox drains below it).
    size_t outbox_capacity_bytes = 4u << 20;
    /// Coordinator side: incoming UpdateBundles land in this shared queue.
    /// Lane-close frames and connection loss do NOT close it (other
    /// connections still feed it); the owner closes it.
    FlowQueue<UpdateBundle>* shared_updates = nullptr;
    /// Liveness deadline: >0 arms a per-connection timer that declares the
    /// peer dead after this long without ANY received traffic (heartbeats
    /// count, as does protocol data), and treats a mid-run EOF or read
    /// error as a peer failure too. 0 = a silent or vanished peer just
    /// closes its inboxes.
    int liveness_timeout_ms = 0;
    /// Invoked (reactor thread, at most once) when the peer is declared
    /// dead under liveness_timeout_ms, with the UNAVAILABLE status.
    std::function<void(const Status&)> on_failure;
    /// Invoked (reactor thread, exactly once) when the read side ends for
    /// any reason except owner shutdown: EOF, error, or liveness failure.
    std::function<void()> on_read_end;
    /// Optional per-site health table (owned by the caller, must outlive the
    /// connection). The connection Touch()es it on received traffic, folds
    /// each telemetry frame's stats into this connection's row, and
    /// MarkDead()s it on a read failure.
    SiteHealthBoard* health = nullptr;
    /// Optional cluster trace board (owned by the caller, must outlive the
    /// connection). Telemetry trace drains are Ingest()ed into it and their
    /// clock samples feed its per-site skew estimator.
    ClusterTraceBoard* trace_board = nullptr;
    /// Site side (receive_direction = kCoordinatorToSite): invoked (reactor
    /// thread) for every received kHeartbeat — the coordinator's echo — with
    /// its timestamps and the local receive time. The site's heartbeat timer
    /// reflects both in its next beat, closing the NTP loop.
    std::function<void(const HeartbeatTimestamps&, int64_t recv_nanos)>
        on_heartbeat;
    /// Which half of the protocol this connection RECEIVES (see
    /// net/protocol_spec.h). Every decoded frame is checked against the
    /// conformance table for this direction; a violation drops the
    /// connection and counts on `net.protocol.violations`. A connection
    /// receiving kSiteToCoordinator is the coordinator's: it attributes
    /// telemetry to `site` (the hello's id) and reflects every telemetry
    /// frame back as an echo stamped with the local clock, so the site can
    /// close the NTP loop. Echoes bypass backpressure like commands; they
    /// are heartbeat-cadence bounded.
    ProtocolDirection receive_direction =
        ProtocolDirection::kSiteToCoordinator;
  };

  /// Takes a connected, hello-paired socket; makes it nonblocking. `site`
  /// labels diagnostics. The reactor must outlive the connection.
  ReactorConnection(Reactor* reactor, TcpSocket socket, int site,
                    const Options& options);
  ~ReactorConnection();

  ReactorConnection(const ReactorConnection&) = delete;
  ReactorConnection& operator=(const ReactorConnection&) = delete;

  /// Registers with the reactor (posted to the loop). Call exactly once;
  /// the reactor may be started before or after.
  void Start();

  Channel<EventBatch>* events() { return &events_; }
  Channel<RoundAdvance>* commands() { return &commands_; }
  Channel<UpdateBundle>* updates() { return &updates_; }

  int site() const { return site_; }
  uint64_t bytes_sent() const { return bytes_sent_.load(std::memory_order_relaxed); }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  /// Encodes `frame` into the outbox and schedules a flush. Blocks while
  /// the outbox is over capacity unless `bypass_backpressure` (commands,
  /// close markers — see the header comment) or called from the loop
  /// thread. Returns false once the connection is broken.
  bool SendFrame(const Frame& frame, bool bypass_backpressure)
      DSGM_EXCLUDES(outbox_mu_);

  /// Teardown with the reactor ALREADY STOPPED (single-threaded): releases
  /// blocked senders, closes inboxes (not a shared update queue) and the
  /// socket. Idempotent. Takes the freed loop role for the loop-state
  /// teardown — which also CHECKs, in debug builds, that the reactor really
  /// was stopped first.
  void ShutdownFromOwner();

  /// Loop-thread only (posted by the shared update queue's owner when that
  /// queue frees space): resume reading if this connection was paused
  /// delivering into it. No-op otherwise.
  void ResumeAfterSharedSpace() DSGM_REQUIRES(reactor_->loop_role) {
    ResumeRead();
  }

 private:
  // Loop-thread methods.
  void RegisterOnLoop() DSGM_REQUIRES(reactor_->loop_role);
  void HandleEvents(uint32_t events) DSGM_REQUIRES(reactor_->loop_role);
  void HandleReadable() DSGM_REQUIRES(reactor_->loop_role);
  void TryWrite() DSGM_REQUIRES(reactor_->loop_role);
  bool ParseFrames() DSGM_REQUIRES(reactor_->loop_role);
  bool TryDeliver(Frame* frame) DSGM_REQUIRES(reactor_->loop_role);
  void ResumeRead() DSGM_REQUIRES(reactor_->loop_role);
  void PauseRead() DSGM_REQUIRES(reactor_->loop_role);
  void CheckLiveness() DSGM_REQUIRES(reactor_->loop_role);
  void EndRead(const Status& failure) DSGM_REQUIRES(reactor_->loop_role);
  /// Marks the send side broken (once), releases blocked senders, and
  /// retires the connection's staged bytes from the outbox gauge.
  void MarkBroken() DSGM_EXCLUDES(outbox_mu_);

  Reactor* reactor_;
  TcpSocket socket_;
  const int site_;
  const Options options_;

  // --- Loop-thread state ---------------------------------------------------
  std::vector<uint8_t> read_buffer_ DSGM_GUARDED_BY(reactor_->loop_role);
  // Bytes valid in read_buffer_.
  size_t read_size_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  // Bytes already consumed by the frame parser.
  size_t parse_offset_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  // Decoded but undeliverable (inbox full).
  std::optional<Frame> pending_frame_ DSGM_GUARDED_BY(reactor_->loop_role);
  bool read_paused_ DSGM_GUARDED_BY(reactor_->loop_role) = false;
  bool read_done_ DSGM_GUARDED_BY(reactor_->loop_role) = false;
  /// The protocol state machine for this connection's receive half. Starts
  /// kActive: the socket arrives hello-paired (the blocking handshake
  /// consumed the site's hello before the connection existed, and the
  /// coordinator sends none). Fed by ParseFrames
  /// on every freshly decoded frame — NOT on pending_frame_ redelivery,
  /// which would double-count transitions.
  ProtocolConformance conformance_ DSGM_GUARDED_BY(reactor_->loop_role);
  bool failure_reported_ DSGM_GUARDED_BY(reactor_->loop_role) = false;
  /// NowNanos() of the last received byte (the liveness clock).
  int64_t last_rx_nanos_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  Reactor::TimerId liveness_timer_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  bool liveness_armed_ DSGM_GUARDED_BY(reactor_->loop_role) = false;

  // --- Outbox (any thread) -------------------------------------------------
  Mutex outbox_mu_;
  CondVar can_send_;
  // Staged by producers; swapped out by the loop.
  std::vector<uint8_t> outbox_ DSGM_GUARDED_BY(outbox_mu_);
  // outbox_ plus the unwritten write_buffer_ tail.
  size_t unsent_bytes_ DSGM_GUARDED_BY(outbox_mu_) = 0;
  bool flush_scheduled_ DSGM_GUARDED_BY(outbox_mu_) = false;
  bool broken_ DSGM_GUARDED_BY(outbox_mu_) = false;

  // Loop-thread write state: the buffer currently being written, swapped
  // out of outbox_ so send() syscalls never run under outbox_mu_.
  std::vector<uint8_t> write_buffer_ DSGM_GUARDED_BY(reactor_->loop_role);
  size_t write_offset_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;

  FlowQueue<EventBatch> event_inbox_;
  FlowQueue<RoundAdvance> command_inbox_;
  std::unique_ptr<FlowQueue<UpdateBundle>> owned_update_inbox_;
  FlowQueue<UpdateBundle>* update_inbox_;
  const bool shared_updates_;

  ReactorChannel<EventBatch> events_;
  ReactorChannel<RoundAdvance> commands_;
  ReactorChannel<UpdateBundle> updates_;

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  bool shutdown_ = false;  // Owner thread only.

  // Shared process-wide instruments (resolved once per connection).
  Counter* const read_pauses_;
  Counter* const read_resumes_;
  Counter* const heartbeats_rx_;
  /// Process-wide staged-but-unwritten outbox bytes, maintained as deltas
  /// under outbox_mu_ so breaks cannot double-subtract.
  Gauge* const outbox_bytes_;
};

/// The coordinator side of a multi-process cluster on one reactor thread:
/// accepts and hello-pairs `num_sites` connections, merges their update
/// lanes, and enforces per-site liveness. Stray connections (port probes,
/// peers that die or speak before their hello) are dropped and re-accepted,
/// a bounded number of times; a version-mismatched hello or a duplicate
/// valid site id fails the accept.
class ReactorCoordinator {
 public:
  struct Options {
    /// 0 disables liveness (a dead site can then stall the run).
    int liveness_timeout_ms = 5000;
    /// Reactor thread, at most once per site: the site was declared dead.
    std::function<void(int site, const Status&)> on_site_failure;
    /// Optional live per-site health table; must outlive the coordinator.
    /// Fed from telemetry frames by each connection.
    SiteHealthBoard* health = nullptr;
    /// Optional cluster trace board; must outlive the coordinator. Fed from
    /// telemetry trace drains and clock samples by each connection.
    ClusterTraceBoard* trace_board = nullptr;
  };

  ReactorCoordinator(int num_sites, const Options& options);
  ~ReactorCoordinator();

  /// Blocks until every site completed its hello handshake. On error the
  /// caller should close the listener and Shutdown().
  Status AcceptSites(TcpListener* listener) DSGM_EXCLUDES(connections_mu_);

  int num_sites() const { return num_sites_; }
  Channel<UpdateBundle>* updates() { return &update_channel_; }
  FlowQueue<UpdateBundle>* merged_updates() { return &merged_updates_; }
  Channel<EventBatch>* events(int site) DSGM_EXCLUDES(connections_mu_);
  Channel<RoundAdvance>* commands(int site) DSGM_EXCLUDES(connections_mu_);

  uint64_t bytes_up() const DSGM_EXCLUDES(connections_mu_);
  uint64_t bytes_down() const DSGM_EXCLUDES(connections_mu_);

  /// Stops the reactor and tears down every connection. Idempotent.
  void Shutdown() DSGM_EXCLUDES(connections_mu_);

 private:
  const int num_sites_;
  const Options options_;
  Reactor reactor_;
  FlowQueue<UpdateBundle> merged_updates_;
  FlowChannel<UpdateBundle> update_channel_;
  /// Guards connections_ slot publication: AcceptSites assigns slots on the
  /// caller's thread while the merged queue's space callback (reactor
  /// thread) may already be iterating them — a liveness failure or a
  /// flooding peer can fire it before the accept loop finishes. The stats
  /// accessors (bytes_up/bytes_down, per-site lanes) take it too: they are
  /// legal during an ongoing AcceptSites.
  mutable Mutex connections_mu_;
  std::vector<std::unique_ptr<ReactorConnection>> connections_
      DSGM_GUARDED_BY(connections_mu_);
  std::atomic<int> live_reads_;
  bool shutdown_ = false;  // Owner thread only.
};

// Blocking hello over a not-yet-reactor-owned socket (shared by the
// in-process transport, ReactorCoordinator::AcceptSites and the site role;
// the hello is an ordinary length-prefixed frame). The handshake is this
// one frame, site to coordinator: the coordinator sends no reply.
Status SendHelloBlocking(TcpSocket* socket, int32_t site);

/// Reads the peer's hello and returns the site id it announced. A hello for
/// any other protocol version fails the read with FailedPrecondition.
StatusOr<int32_t> ReadHelloBlocking(TcpSocket* socket);

template <typename T>
bool ReactorChannel<T>::Push(T item) {
  if (send_closed_.load(std::memory_order_acquire)) return false;
  return connection_->SendFrame(
      MakeFrame(std::move(item)),
      /*bypass_backpressure=*/type_ == FrameType::kRoundAdvance);
}

template <typename T>
void ReactorChannel<T>::Close() {
  if (!send_closed_.exchange(true, std::memory_order_acq_rel)) {
    connection_->SendFrame(MakeChannelClose(type_), /*bypass_backpressure=*/true);
  }
}

}  // namespace dsgm

#endif  // DSGM_NET_REACTOR_TRANSPORT_H_
