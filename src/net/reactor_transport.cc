#include "net/reactor_transport.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>

#include "net/cluster_transport.h"

namespace dsgm {
namespace {

// One recv()'s worth of fresh buffer space; frames larger than this grow
// the buffer to their exact need (bounded by kMaxFramePayload).
constexpr size_t kReadChunk = 64 << 10;
// Consumed-prefix compaction threshold for the read buffer.
constexpr size_t kCompactThreshold = 256 << 10;

#ifndef NDEBUG
// Set once the thread begins destroying its thread_local objects. The
// canary is first constructed (and therefore destroyed before) SendFrame's
// thread_local scratch buffer, so the flag flips before the scratch dies.
thread_local bool tls_teardown_begun = false;
struct TlsTeardownCanary {
  ~TlsTeardownCanary() { tls_teardown_begun = true; }
};
#endif

}  // namespace

// --- Hello helpers -------------------------------------------------------

Status SendHelloBlocking(TcpSocket* socket, int32_t site) {
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHello(site), &bytes);
  return socket->SendAll(bytes.data(), bytes.size());
}

StatusOr<int32_t> ReadHelloBlocking(TcpSocket* socket) {
  // The handshake runs the same conformance machine as the steady state:
  // a fresh kAwaitingHello validator accepts exactly one current-version
  // hello and counts everything else on `net.protocol.violations`.
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  uint8_t prefix[4];
  DSGM_RETURN_IF_ERROR(socket->RecvAll(prefix, 4));
  const uint32_t length = DecodeLengthPrefix(prefix);
  // A hello is a handful of bytes; anything bigger is not a dsgm site.
  if (length > 16) {
    conformance.OnMalformedFrame();
    return InvalidArgumentError("reactor: oversized hello frame");
  }
  std::vector<uint8_t> payload(length);
  DSGM_RETURN_IF_ERROR(socket->RecvAll(payload.data(), payload.size()));
  Frame frame;
  Status decoded = DecodeFramePayload(payload.data(), payload.size(), &frame);
  if (!decoded.ok()) {
    conformance.OnMalformedFrame();
    return decoded;
  }
  switch (conformance.OnFrame(frame)) {
    case ProtocolVerdict::kAccept:
      return frame.site;
    case ProtocolVerdict::kVersionMismatch:
      // Version mismatch is a deployment error surfaced loudly (a genuine
      // dsgm peer speaking another revision); anything else is a droppable
      // stray.
      return FailedPreconditionError(
          "reactor: protocol version mismatch: peer speaks v" +
          std::to_string(frame.protocol_version) + ", this build speaks v" +
          std::to_string(kProtocolVersion) +
          " — rebuild both ends from the same revision");
    case ProtocolVerdict::kViolation:
      break;
  }
  return InvalidArgumentError("reactor: expected hello frame");
}

// --- ReactorConnection ---------------------------------------------------

ReactorConnection::ReactorConnection(Reactor* reactor, TcpSocket socket,
                                     int site, const Options& options)
    : reactor_(reactor),
      socket_(std::move(socket)),
      site_(site),
      options_(options),
      conformance_(options.receive_direction, ProtocolState::kActive),
      event_inbox_(options.event_capacity),
      command_inbox_(options.command_capacity),
      owned_update_inbox_(options.shared_updates == nullptr
                              ? std::make_unique<FlowQueue<UpdateBundle>>(
                                    options.update_capacity)
                              : nullptr),
      update_inbox_(options.shared_updates != nullptr ? options.shared_updates
                                                      : owned_update_inbox_.get()),
      shared_updates_(options.shared_updates != nullptr),
      events_(this, FrameType::kEventBatch, &event_inbox_),
      commands_(this, FrameType::kRoundAdvance, &command_inbox_),
      updates_(this, FrameType::kUpdateBundle, update_inbox_),
      read_pauses_(
          MetricsRegistry::Global().GetCounter("net.reactor.read_pauses")),
      read_resumes_(
          MetricsRegistry::Global().GetCounter("net.reactor.read_resumes")),
      heartbeats_rx_(
          MetricsRegistry::Global().GetCounter("net.reactor.heartbeats_rx")),
      outbox_bytes_(
          MetricsRegistry::Global().GetGauge("net.reactor.outbox_bytes")) {
  DSGM_CHECK(socket_.SetNonBlocking().ok());
  // A pop that frees space in one of OUR lanes resumes OUR socket. The
  // shared update queue's callback belongs to the owner (it must resume
  // every connection feeding the queue).
  const auto resume = [this] {
    reactor_->Post([this] {
      reactor_->loop_role.AssertHeld();
      ResumeRead();
    });
  };
  event_inbox_.set_space_callback(resume);
  command_inbox_.set_space_callback(resume);
  if (owned_update_inbox_ != nullptr) {
    owned_update_inbox_->set_space_callback(resume);
  }
}

ReactorConnection::~ReactorConnection() {
  // The owner must have stopped the reactor and called ShutdownFromOwner
  // (both idempotent); this is only a backstop for error paths.
  ShutdownFromOwner();
}

void ReactorConnection::Start() {
  reactor_->Post([this] {
    reactor_->loop_role.AssertHeld();
    RegisterOnLoop();
  });
}

void ReactorConnection::RegisterOnLoop() {
  if (read_done_) return;  // Owner shut down before the loop saw us.
  last_rx_nanos_ = NowNanos();
  if (options_.health) options_.health->Touch(site_, last_rx_nanos_);
  reactor_->AddFd(socket_.fd(), EPOLLIN | EPOLLOUT, [this](uint32_t events) {
    reactor_->loop_role.AssertHeld();
    HandleEvents(events);
  });
  if (options_.liveness_timeout_ms > 0) {
    const int period = std::max(1, options_.liveness_timeout_ms / 4);
    liveness_timer_ = reactor_->AddTimer(
        period,
        [this] {
          reactor_->loop_role.AssertHeld();
          CheckLiveness();
        },
        /*periodic=*/true);
    liveness_armed_ = true;
  }
}

void ReactorConnection::HandleEvents(uint32_t events) {
  if (read_done_) return;
  if (events & EPOLLOUT) TryWrite();
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) HandleReadable();
}

bool ReactorConnection::SendFrame(const Frame& frame, bool bypass_backpressure) {
  // Encode OUTSIDE the lock: producers pay only for the byte append, never
  // for each other's encoding or the loop's kernel writes.
  static thread_local std::vector<uint8_t> scratch;
#ifndef NDEBUG
  // Constructed on first use — i.e. after `scratch` — so it is destroyed
  // first during thread exit. A send from a thread_local destructor (the
  // TLS-teardown hazard the orphan-shard flush dodges by parking instead of
  // delivering) would touch `scratch` after or during its destruction;
  // this trips deterministically instead.
  static thread_local TlsTeardownCanary canary;
  (void)canary;
  DSGM_CHECK(!tls_teardown_begun)
      << "SendFrame called during thread-local teardown (site " << site_
      << "); transport sends from TLS destructors are forbidden";
#endif
  scratch.clear();
  AppendFrame(frame, &scratch);
  bool need_flush = false;
  {
    MutexLock lock(&outbox_mu_);
    if (!bypass_backpressure) {
      while (!broken_ && unsent_bytes_ >= options_.outbox_capacity_bytes) {
        // The loop thread must never park on its own outbox: it is the only
        // thread that can drain it.
        if (reactor_->InLoopThread()) break;
        can_send_.Wait(&lock);
      }
    }
    if (broken_) return false;
    outbox_.insert(outbox_.end(), scratch.begin(), scratch.end());
    unsent_bytes_ += scratch.size();
    outbox_bytes_->Add(static_cast<int64_t>(scratch.size()));
    need_flush = !flush_scheduled_;
    flush_scheduled_ = true;
  }
  if (need_flush) {
    reactor_->Post([this] {
      reactor_->loop_role.AssertHeld();
      TryWrite();
    });
  }
  return true;
}

void ReactorConnection::TryWrite() {
  {
    MutexLock lock(&outbox_mu_);
    flush_scheduled_ = false;
  }
  while (true) {
    if (write_offset_ == write_buffer_.size()) {
      write_buffer_.clear();
      write_offset_ = 0;
      MutexLock lock(&outbox_mu_);
      if (broken_ || outbox_.empty()) return;
      write_buffer_.swap(outbox_);
    }
    // The send syscall runs WITHOUT the lock; only the byte accounting
    // that releases blocked producers retakes it.
    const ssize_t n =
        ::send(socket_.fd(), write_buffer_.data() + write_offset_,
               write_buffer_.size() - write_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      write_offset_ += static_cast<size_t>(n);
      bytes_sent_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      bool room;
      {
        MutexLock lock(&outbox_mu_);
        unsent_bytes_ -= static_cast<size_t>(n);
        outbox_bytes_->Add(-static_cast<int64_t>(n));
        room = unsent_bytes_ < options_.outbox_capacity_bytes;
      }
      if (room) can_send_.NotifyAll();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // The EPOLLOUT edge resumes this when the socket drains.
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer gone mid-write. The read side surfaces the failure policy; here
    // just stop accepting frames and release anyone blocked on the cap.
    MarkBroken();
    return;
  }
}

void ReactorConnection::MarkBroken() {
  {
    MutexLock lock(&outbox_mu_);
    if (!broken_) {
      broken_ = true;
      // Staged bytes will never be written; keep the process-wide gauge
      // honest (the once-only transition prevents double subtraction).
      outbox_bytes_->Add(-static_cast<int64_t>(unsent_bytes_));
      unsent_bytes_ = 0;
    }
  }
  can_send_.NotifyAll();
}

void ReactorConnection::HandleReadable() {
  if (read_paused_ || read_done_) return;
  while (true) {
    if (read_buffer_.size() - read_size_ < kReadChunk) {
      read_buffer_.resize(read_size_ + kReadChunk);
    }
    const ssize_t n = ::recv(socket_.fd(), read_buffer_.data() + read_size_,
                             read_buffer_.size() - read_size_, 0);
    if (n > 0) {
      read_size_ += static_cast<size_t>(n);
      bytes_received_.fetch_add(static_cast<uint64_t>(n),
                                std::memory_order_relaxed);
      last_rx_nanos_ = NowNanos();
      if (options_.health) options_.health->Touch(site_, last_rx_nanos_);
      if (!ParseFrames()) return;  // Paused or ended inside.
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // EOF. Mid-run this is a vanished site when liveness is on; during
      // shutdown the owner has already stopped caring (read_done_).
      EndRead(options_.liveness_timeout_ms > 0
                  ? UnavailableError(
                        "site " + std::to_string(site_) +
                        " closed its connection mid-run")
                  : Status::Ok());
      return;
    }
    EndRead(options_.liveness_timeout_ms > 0
                ? UnavailableError("site " + std::to_string(site_) +
                                   " connection error: " + std::strerror(errno))
                : Status::Ok());
    return;
  }
}

bool ReactorConnection::ParseFrames() {
  while (true) {
    if (pending_frame_.has_value()) {
      Frame frame = std::move(*pending_frame_);
      pending_frame_.reset();
      if (!TryDeliver(&frame)) {
        pending_frame_ = std::move(frame);
        PauseRead();
        return false;
      }
    }
    const size_t available = read_size_ - parse_offset_;
    if (available < 4) break;
    const uint32_t length = DecodeLengthPrefix(read_buffer_.data() + parse_offset_);
    if (length > kMaxFramePayload) {
      conformance_.OnMalformedFrame();
      Trace(TraceEventType::kProtocolViolation, site_, -1);
      EndRead(options_.liveness_timeout_ms > 0
                  ? UnavailableError("site " + std::to_string(site_) +
                                     " sent an oversized frame")
                  : Status::Ok());
      return false;
    }
    if (available - 4 < length) {
      // Make room for the whole frame so the next recv can complete it.
      if (read_buffer_.size() - parse_offset_ < 4 + static_cast<size_t>(length)) {
        read_buffer_.resize(parse_offset_ + 4 + length + kReadChunk);
      }
      break;
    }
    Frame frame;
    const Status decoded = DecodeFramePayload(
        read_buffer_.data() + parse_offset_ + 4, length, &frame);
    if (!decoded.ok()) {
      conformance_.OnMalformedFrame();
      Trace(TraceEventType::kProtocolViolation, site_, -1);
      EndRead(options_.liveness_timeout_ms > 0
                  ? UnavailableError("site " + std::to_string(site_) +
                                     " sent a malformed frame: " +
                                     decoded.message())
                  : Status::Ok());
      return false;
    }
    parse_offset_ += 4 + length;
    // Conformance gates every FRESH frame exactly once, before delivery;
    // the pending_frame_ redelivery above re-offers an already-accepted
    // frame, so it must not (and does not) pass through the table again.
    const char* state_name = ProtocolStateName(conformance_.state());
    if (conformance_.OnFrame(frame) != ProtocolVerdict::kAccept) {
      Trace(TraceEventType::kProtocolViolation, site_,
            static_cast<int64_t>(frame.type));
      EndRead(options_.liveness_timeout_ms > 0
                  ? UnavailableError(
                        "site " + std::to_string(site_) +
                        " violated the protocol: " +
                        WireInputName(WireInputOf(frame)) + " in state " +
                        state_name)
                  : Status::Ok());
      return false;
    }
    if (!TryDeliver(&frame)) {
      pending_frame_ = std::move(frame);
      PauseRead();
      return false;
    }
  }
  if (parse_offset_ == read_size_) {
    read_size_ = 0;
    parse_offset_ = 0;
  } else if (parse_offset_ >= kCompactThreshold) {
    std::memmove(read_buffer_.data(), read_buffer_.data() + parse_offset_,
                 read_size_ - parse_offset_);
    read_size_ -= parse_offset_;
    parse_offset_ = 0;
  }
  return true;
}

bool ReactorConnection::TryDeliver(Frame* frame) {
  switch (frame->type) {
    case FrameType::kEventBatch:
      return event_inbox_.TryPush(std::move(frame->batch)) != FlowPush::kFull;
    case FrameType::kRoundAdvance:
      return command_inbox_.TryPush(std::move(frame->advance)) != FlowPush::kFull;
    case FrameType::kUpdateBundle:
      return update_inbox_->TryPush(std::move(frame->bundle)) != FlowPush::kFull;
    case FrameType::kChannelClose:
      switch (frame->channel) {
        case FrameType::kEventBatch:
          event_inbox_.Close();
          break;
        case FrameType::kRoundAdvance:
          command_inbox_.Close();
          break;
        case FrameType::kUpdateBundle:
          // A shared update queue aggregates several connections; losing
          // one lane must not end the stream for the others.
          if (!shared_updates_) update_inbox_->Close();
          break;
        default:
          break;  // Unreachable: the codec validates channel tags.
      }
      return true;
    case FrameType::kHello:
      return true;  // Unreachable: no hello passes conformance here.
    case FrameType::kHeartbeat: {
      if (options_.receive_direction == ProtocolDirection::kCoordinatorToSite) {
        // The site side of the echo loop: hand the coordinator's echo (plus
        // the local receive time) to the site's heartbeat timer.
        if (options_.on_heartbeat) options_.on_heartbeat(frame->hb, NowNanos());
        return true;
      }
      // Telemetry from a site: liveness is credited by the read itself
      // (last_rx_nanos_), and everything else lands on this connection's
      // row — the frame names no site.
      heartbeats_rx_->Increment();
      Trace(TraceEventType::kHeartbeat, site_, 0);
      const int64_t now = NowNanos();
      if (options_.trace_board && frame->hb.send_nanos != 0) {
        // NTP leg: T1/T2 are the echo timestamps the site reflected back,
        // T3 the site's send time, T4 this arrival — measured locally,
        // never trusted from the wire.
        options_.trace_board->AddSkewSample(site_, frame->hb.echo_nanos,
                                            frame->hb.echo_recv_nanos,
                                            frame->hb.send_nanos, now);
      }
      HeartbeatTimestamps echo;
      echo.send_nanos = now;
      SendFrame(MakeHeartbeat(echo), /*bypass_backpressure=*/true);
      if (options_.health) {
        options_.health->Update(site_, frame->stats.events_processed,
                                frame->stats.updates_sent,
                                frame->stats.syncs_sent,
                                frame->stats.rounds_seen);
      }
      Trace(TraceEventType::kStatsReport, site_,
            frame->stats.events_processed);
      if (options_.trace_board && !frame->trace.events.empty()) {
        options_.trace_board->Ingest(site_, frame->trace.first_seq,
                                     frame->trace.events);
      }
      return true;
    }
  }
  return true;
}

void ReactorConnection::PauseRead() {
  if (read_paused_ || read_done_) return;
  read_paused_ = true;
  read_pauses_->Increment();
  // Keep write interest; drop read interest until an inbox frees space.
  reactor_->ModifyFd(socket_.fd(), EPOLLOUT);
}

void ReactorConnection::ResumeRead() {
  if (!read_paused_ || read_done_) return;
  read_paused_ = false;
  read_resumes_->Increment();
  // The pause may have outlived real progress: treat resumption as liveness
  // evidence, since unread bytes were (possibly) waiting on us.
  last_rx_nanos_ = NowNanos();
  if (!ParseFrames()) return;  // Still blocked (or ended): stay paused.
  reactor_->ModifyFd(socket_.fd(), EPOLLIN | EPOLLOUT);
  // An edge may have been missed while unsubscribed; drain manually.
  HandleReadable();
}

void ReactorConnection::CheckLiveness() {
  if (read_done_) return;
  if (read_paused_) {
    // We are the bottleneck (full inbox), not the peer; bytes may be
    // sitting unread in the kernel. Do not count this window against it.
    last_rx_nanos_ = NowNanos();
    return;
  }
  const int64_t elapsed_ms = (NowNanos() - last_rx_nanos_) / 1000000;
  if (elapsed_ms <= options_.liveness_timeout_ms) return;
  EndRead(UnavailableError(
      "site " + std::to_string(site_) + " sent no traffic (not even a "
      "heartbeat) for " + std::to_string(elapsed_ms) +
      " ms, past the " + std::to_string(options_.liveness_timeout_ms) +
      " ms liveness timeout"));
}

void ReactorConnection::EndRead(const Status& failure) {
  if (read_done_) return;
  read_done_ = true;
  reactor_->RemoveFd(socket_.fd());
  if (liveness_armed_) {
    reactor_->CancelTimer(liveness_timer_);
    liveness_armed_ = false;
  }
  MarkBroken();
  // Wake the peer's reader too (it sees EOF) and stop the kernel from
  // buffering more; the fd itself stays open until the owner destroys us.
  socket_.ShutdownBoth();
  event_inbox_.Close();
  command_inbox_.Close();
  if (!shared_updates_) update_inbox_->Close();
  if (!failure.ok() && !failure_reported_) {
    failure_reported_ = true;
    if (options_.health) options_.health->MarkDead(site_);
    Trace(TraceEventType::kSiteFailed, site_, 0);
    if (options_.on_failure) options_.on_failure(failure);
  }
  if (options_.on_read_end) options_.on_read_end();
}

void ReactorConnection::ShutdownFromOwner() {
  if (shutdown_) return;
  shutdown_ = true;
  MarkBroken();
  // The reactor is stopped: its loop role is free, so this thread takes it
  // for the teardown (and debug builds CHECK the loop really exited).
  reactor_->loop_role.Grant();
  read_done_ = true;
  reactor_->loop_role.Yield();
  event_inbox_.Close();
  command_inbox_.Close();
  if (!shared_updates_) update_inbox_->Close();
  socket_.ShutdownBoth();
  socket_.Close();
}

// --- ReactorCoordinator --------------------------------------------------

ReactorCoordinator::ReactorCoordinator(int num_sites, const Options& options)
    : num_sites_(num_sites),
      options_(options),
      merged_updates_(kUpdateQueueCapacity),
      update_channel_(&merged_updates_),
      connections_(static_cast<size_t>(num_sites)),
      live_reads_(num_sites) {
  DSGM_CHECK_GT(num_sites, 0);
  // Space in the merged queue can unblock ANY paused site connection. The
  // slot lock orders this against AcceptSites still publishing connections.
  merged_updates_.set_space_callback([this] {
    reactor_.Post([this] {
      reactor_.loop_role.AssertHeld();
      MutexLock lock(&connections_mu_);
      for (auto& connection : connections_) {
        if (connection != nullptr) connection->ResumeAfterSharedSpace();
      }
    });
  });
  reactor_.Start();
}

ReactorCoordinator::~ReactorCoordinator() { Shutdown(); }

Status ReactorCoordinator::AcceptSites(TcpListener* listener) {
  // Stray-connection policy: port probes and pre-hello deaths are dropped
  // and re-accepted (bounded; the hello read has a timeout so a silent peer
  // cannot stall the loop), a version mismatch or duplicate valid site id is
  // fatal — those are misconfigured real sites, not line noise.
  constexpr int kHelloTimeoutMs = 10000;
  int rejects_left = 16 + 4 * num_sites_;
  int accepted = 0;
  while (accepted < num_sites_) {
    StatusOr<TcpSocket> socket = listener->Accept();
    if (!socket.ok()) return socket.status();
    socket->SetRecvTimeout(kHelloTimeoutMs);
    StatusOr<int32_t> hello = ReadHelloBlocking(&socket.value());
    if (!hello.ok() &&
        hello.status().code() == StatusCode::kFailedPrecondition) {
      return hello.status();
    }
    if (!hello.ok() || *hello < 0 || *hello >= num_sites_) {
      if (--rejects_left < 0) {
        return InvalidArgumentError(
            "too many defective connections while waiting for sites");
      }
      continue;  // Drop the stray connection; keep listening.
    }
    {
      MutexLock lock(&connections_mu_);
      if (connections_[static_cast<size_t>(*hello)] != nullptr) {
        return InvalidArgumentError("two connections announced site id " +
                                    std::to_string(*hello));
      }
    }
    socket->SetRecvTimeout(0);
    ReactorConnection::Options connection_options;
    connection_options.shared_updates = &merged_updates_;
    connection_options.liveness_timeout_ms = options_.liveness_timeout_ms;
    connection_options.health = options_.health;
    connection_options.trace_board = options_.trace_board;
    connection_options.receive_direction =
        ProtocolDirection::kSiteToCoordinator;
    const int site_id = *hello;
    if (options_.on_site_failure) {
      connection_options.on_failure = [this, site_id](const Status& status) {
        options_.on_site_failure(site_id, status);
      };
    }
    connection_options.on_read_end = [this] {
      // No connection will ever feed the merged queue again: close it so
      // the coordinator drains and exits instead of blocking forever.
      if (live_reads_.fetch_sub(1) == 1) merged_updates_.Close();
    };
    auto connection = std::make_unique<ReactorConnection>(
        &reactor_, std::move(socket).value(), site_id, connection_options);
    connection->Start();
    {
      MutexLock lock(&connections_mu_);
      connections_[static_cast<size_t>(site_id)] = std::move(connection);
    }
    ++accepted;
  }
  return Status::Ok();
}

Channel<EventBatch>* ReactorCoordinator::events(int site) {
  MutexLock lock(&connections_mu_);
  return connections_[static_cast<size_t>(site)]->events();
}

Channel<RoundAdvance>* ReactorCoordinator::commands(int site) {
  MutexLock lock(&connections_mu_);
  return connections_[static_cast<size_t>(site)]->commands();
}

// The annotation pass flagged these: both counters iterated connections_
// bare, racing AcceptSites' slot publication when stats are sampled during
// an ongoing accept (mid-run stats were fine only by accident of call
// order). They take the slot lock now.
uint64_t ReactorCoordinator::bytes_up() const {
  MutexLock lock(&connections_mu_);
  uint64_t total = 0;
  for (const auto& connection : connections_) {
    if (connection != nullptr) total += connection->bytes_received();
  }
  return total;
}

uint64_t ReactorCoordinator::bytes_down() const {
  MutexLock lock(&connections_mu_);
  uint64_t total = 0;
  for (const auto& connection : connections_) {
    if (connection != nullptr) total += connection->bytes_sent();
  }
  return total;
}

void ReactorCoordinator::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  reactor_.Stop();
  {
    MutexLock lock(&connections_mu_);
    for (auto& connection : connections_) {
      if (connection != nullptr) connection->ShutdownFromOwner();
    }
  }
  merged_updates_.Close();
}

// --- In-process transport (conformance suite, kThreads factory) ----------

namespace {

class ReactorTransport : public ClusterTransport {
 public:
  explicit ReactorTransport(int num_sites)
      : num_sites_(num_sites),
        merged_updates_(kUpdateQueueCapacity),
        update_channel_(&merged_updates_) {
    StatusOr<TcpListener> listener = TcpListener::Listen(0, num_sites + 8);
    DSGM_CHECK(listener.ok()) << listener.status();

    std::vector<TcpSocket> site_sockets(static_cast<size_t>(num_sites));
    std::vector<TcpSocket> coordinator_sockets(static_cast<size_t>(num_sites));
    for (int s = 0; s < num_sites; ++s) {
      StatusOr<TcpSocket> socket =
          TcpSocket::Connect("127.0.0.1", listener->port());
      DSGM_CHECK(socket.ok()) << socket.status();
      DSGM_CHECK(SendHelloBlocking(&socket.value(), s).ok());
      site_sockets[static_cast<size_t>(s)] = std::move(socket).value();
    }
    for (int s = 0; s < num_sites; ++s) {
      StatusOr<TcpSocket> socket = listener->Accept();
      DSGM_CHECK(socket.ok()) << socket.status();
      StatusOr<int32_t> hello = ReadHelloBlocking(&socket.value());
      DSGM_CHECK(hello.ok()) << hello.status();
      const int32_t site = *hello;
      DSGM_CHECK(site >= 0 && site < num_sites);
      DSGM_CHECK(coordinator_sockets[static_cast<size_t>(site)].valid() == false);
      coordinator_sockets[static_cast<size_t>(site)] = std::move(socket).value();
    }

    // coordinator_connections_ needs no lock here: the vector is fully
    // populated before this transport is handed to any consumer, and only a
    // consumer's pop can fire the space callback (Post's queue then orders
    // the loop's read after construction).
    merged_updates_.set_space_callback([this] {
      coordinator_reactor_.Post([this] {
        coordinator_reactor_.loop_role.AssertHeld();
        for (auto& connection : coordinator_connections_) {
          connection->ResumeAfterSharedSpace();
        }
      });
    });
    coordinator_reactor_.Start();
    site_reactor_.Start();

    ReactorConnection::Options coordinator_options;
    coordinator_options.shared_updates = &merged_updates_;
    coordinator_options.receive_direction =
        ProtocolDirection::kSiteToCoordinator;
    ReactorConnection::Options site_options;
    site_options.receive_direction = ProtocolDirection::kCoordinatorToSite;
    for (int s = 0; s < num_sites; ++s) {
      coordinator_connections_.push_back(std::make_unique<ReactorConnection>(
          &coordinator_reactor_,
          std::move(coordinator_sockets[static_cast<size_t>(s)]), s,
          coordinator_options));
      coordinator_connections_.back()->Start();
      site_connections_.push_back(std::make_unique<ReactorConnection>(
          &site_reactor_, std::move(site_sockets[static_cast<size_t>(s)]), s,
          site_options));
      site_connections_.back()->Start();
    }
  }

  ~ReactorTransport() override { Shutdown(); }

  int num_sites() const override { return num_sites_; }

  CoordinatorEndpoints coordinator() override {
    CoordinatorEndpoints endpoints;
    endpoints.updates = &update_channel_;
    for (int s = 0; s < num_sites_; ++s) {
      endpoints.events.push_back(
          coordinator_connections_[static_cast<size_t>(s)]->events());
      endpoints.commands.push_back(
          coordinator_connections_[static_cast<size_t>(s)]->commands());
    }
    return endpoints;
  }

  SiteEndpoints site(int s) override {
    DSGM_CHECK_GE(s, 0);
    DSGM_CHECK_LT(s, num_sites_);
    SiteEndpoints endpoints;
    ReactorConnection* connection = site_connections_[static_cast<size_t>(s)].get();
    endpoints.events = connection->events();
    endpoints.commands = connection->commands();
    endpoints.updates = connection->updates();
    return endpoints;
  }

  TransportStats stats() const override {
    // Coordinator side only; the site side of each pair would double every
    // byte.
    TransportStats stats;
    stats.measured = true;
    for (const auto& connection : coordinator_connections_) {
      stats.bytes_down += connection->bytes_sent();
      stats.bytes_up += connection->bytes_received();
    }
    return stats;
  }

  void Shutdown() override {
    if (shutdown_) return;
    shutdown_ = true;
    coordinator_reactor_.Stop();
    site_reactor_.Stop();
    for (auto& connection : coordinator_connections_) connection->ShutdownFromOwner();
    for (auto& connection : site_connections_) connection->ShutdownFromOwner();
    merged_updates_.Close();
  }

 private:
  int num_sites_;
  Reactor coordinator_reactor_;
  Reactor site_reactor_;
  FlowQueue<UpdateBundle> merged_updates_;
  FlowChannel<UpdateBundle> update_channel_;
  std::vector<std::unique_ptr<ReactorConnection>> coordinator_connections_;
  std::vector<std::unique_ptr<ReactorConnection>> site_connections_;
  bool shutdown_ = false;
};

}  // namespace

std::unique_ptr<ClusterTransport> MakeReactorTransport(int num_sites) {
  DSGM_CHECK_GT(num_sites, 0);
  return std::make_unique<ReactorTransport>(num_sites);
}

}  // namespace dsgm
