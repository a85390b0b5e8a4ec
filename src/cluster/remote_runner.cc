#include "cluster/remote_runner.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "cluster/site_node.h"
#include "net/codec.h"
#include "net/reactor.h"
#include "net/reactor_transport.h"
#include "net/tcp_socket.h"

namespace dsgm {
namespace {

/// Sends one kHeartbeat telemetry frame per tick of a periodic timer on the
/// site's reactor, so liveness evidence flows even while the SiteNode
/// thread is parked in a blocking push or pop.
///
/// Each frame reflects the latest coordinator echo (OnEcho, fed by the
/// connection's on_heartbeat hook), closing the NTP timestamp loop, and
/// carries the stats sampled from `stats` for the coordinator's health
/// table. With `ship_traces` it also carries an incremental drain of this
/// process's trace rings (loss-tolerant: the drain cursor accounts for ring
/// overwrite, and the coordinator reads gaps from the sequence numbers).
/// Every member is loop-thread state: the echo hook and the timer both run
/// on the reactor, so no lock couples them.
class HeartbeatSender {
 public:
  using StatsFn = std::function<SiteStatsReport()>;

  HeartbeatSender(Reactor* reactor, int site_id, bool ship_traces)
      : reactor_(reactor), site_id_(site_id), ship_traces_(ship_traces) {}

  /// Arms the periodic timer (posted to the loop); interval_ms <= 0 sends
  /// no heartbeats. `stats` is sampled on the loop thread.
  void Start(ReactorConnection* connection, int interval_ms, StatsFn stats) {
    if (interval_ms <= 0) return;
    reactor_->Post([this, connection, interval_ms, stats = std::move(stats)] {
      reactor_->loop_role.AssertHeld();
      connection_ = connection;
      stats_ = stats;
      timer_ = reactor_->AddTimer(
          interval_ms,
          [this] {
            reactor_->loop_role.AssertHeld();
            Beat();
          },
          /*periodic=*/true);
    });
  }

  /// The connection's on_heartbeat hook (reactor thread): remembers the
  /// coordinator's echo (its send time, on the coordinator clock) and when
  /// it arrived here.
  void OnEcho(const HeartbeatTimestamps& echo, int64_t recv_nanos) {
    reactor_->loop_role.AssertHeld();
    echo_nanos_ = echo.send_nanos;
    echo_recv_nanos_ = recv_nanos;
  }

 private:
  void Beat() DSGM_REQUIRES(reactor_->loop_role) {
    HeartbeatTimestamps hb;
    hb.echo_nanos = echo_nanos_;
    hb.echo_recv_nanos = echo_recv_nanos_;
    hb.send_nanos = NowNanos();
    // Recorded before the drain below, so the beat's own trace event ships
    // in the frame it describes — the coordinator's post-mortem of a dead
    // site ends with that site's final heartbeat.
    Trace(TraceEventType::kHeartbeat, site_id_,
          static_cast<int64_t>(++heartbeats_sent_));
    TraceChunk trace;
    if (ship_traces_) DrainTraceEvents(&cursor_, &trace.events, &trace.first_seq);
    // Telemetry bypasses the outbox cap: it is cadence-bounded, and the
    // loop thread never parks on its own outbox anyway. A failed send means
    // the peer is gone; nothing is left to prove alive to.
    if (!connection_->SendFrame(MakeHeartbeat(hb, stats_(), std::move(trace)),
                                /*bypass_backpressure=*/true)) {
      reactor_->CancelTimer(timer_);
    }
  }

  Reactor* const reactor_;
  const int site_id_;
  const bool ship_traces_;
  ReactorConnection* connection_ DSGM_GUARDED_BY(reactor_->loop_role) = nullptr;
  StatsFn stats_ DSGM_GUARDED_BY(reactor_->loop_role);
  Reactor::TimerId timer_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  /// The last echo's send_nanos (coordinator clock); 0 until the first.
  int64_t echo_nanos_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  /// Local clock when that echo arrived.
  int64_t echo_recv_nanos_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  uint64_t heartbeats_sent_ DSGM_GUARDED_BY(reactor_->loop_role) = 0;
  TraceDrainCursor cursor_ DSGM_GUARDED_BY(reactor_->loop_role);
};

}  // namespace

StatusOr<RemoteSiteResult> RunRemoteSite(const BayesianNetwork& network,
                                         const RemoteSiteConfig& config) {
  if (config.site_id < 0) return InvalidArgumentError("site_id must be >= 0");

  // The coordinator may still be booting; retry the connect until the
  // timeout budget runs out.
  const int64_t deadline_nanos =
      NowNanos() + static_cast<int64_t>(config.connect_timeout_ms) * 1000000;
  StatusOr<TcpSocket> socket = TcpSocket::Connect(config.host, config.port);
  while (!socket.ok() && NowNanos() < deadline_nanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    socket = TcpSocket::Connect(config.host, config.port);
  }
  if (!socket.ok()) return socket.status();
  DSGM_RETURN_IF_ERROR(SendHelloBlocking(&socket.value(), config.site_id));

  // The event loop is built only after the hello, so a coordinator waiting
  // for every site's hello never waits on loop setup. Declaration order is
  // teardown order: the reactor outlives everything its closures touch.
  Reactor reactor;
  HeartbeatSender heartbeats(&reactor, config.site_id, config.ship_traces);
  // Set (reactor thread) once the read side ends: the coordinator closed
  // the connection, or it broke.
  std::atomic<bool> read_ended{false};
  ReactorConnection::Options options;
  options.receive_direction = ProtocolDirection::kCoordinatorToSite;
  options.on_heartbeat = [&heartbeats](const HeartbeatTimestamps& hb,
                                       int64_t recv_nanos) {
    heartbeats.OnEcho(hb, recv_nanos);
  };
  options.on_read_end = [&read_ended] {
    read_ended.store(true, std::memory_order_release);
  };
  ReactorConnection connection(&reactor, std::move(socket).value(),
                               config.site_id, options);
  reactor.Start();
  connection.Start();

  SiteNode site(config.site_id, std::make_shared<const CounterLayout>(network),
                config.seed, connection.events(), connection.commands(),
                connection.updates());
  // The timer samples the node's relaxed stats atomics; safe while Run() is
  // live, and the reactor is stopped before `site` leaves scope.
  heartbeats.Start(&connection, config.heartbeat_interval_ms,
                   [&site] { return site.StatsReport(); });
  site.Run();

  // Protocol finished; report exact totals so the coordinator can validate
  // its estimates. Zero counters are implicit.
  UpdateBundle final_counts;
  final_counts.kind = UpdateBundle::Kind::kFinalCounts;
  final_counts.site = config.site_id;
  const std::vector<uint32_t>& counts = site.local_counts();
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] != 0) {
      final_counts.reports.push_back(
          CounterReport{static_cast<int64_t>(c), counts[c]});
    }
  }
  const bool reported = connection.updates()->Push(std::move(final_counts));
  // Linger until the coordinator closes the connection (bounded): its
  // liveness policy treats any mid-run EOF as a site failure, so the site
  // must not be the one to hang up while the coordinator is still
  // collecting final counts from its peers. Heartbeats keep flowing
  // through the wait.
  const int64_t linger_deadline_nanos =
      NowNanos() + static_cast<int64_t>(config.shutdown_linger_ms) * 1000000;
  while (reported && !read_ended.load(std::memory_order_acquire) &&
         NowNanos() < linger_deadline_nanos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reactor.Stop();
  connection.ShutdownFromOwner();
  if (!reported) {
    return InternalError("coordinator vanished before the final counts report");
  }

  RemoteSiteResult result;
  result.events_processed = site.events_processed();
  return result;
}

}  // namespace dsgm
