// Shared conformance suite for cluster transports: every behavior the
// cluster nodes rely on, asserted against every wiring (in-process
// loopback, the reactor transport, and the kLocalTcp site-role wiring)
// through the same parameterized tests. A new
// transport earns its place by passing this suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/cluster_transport.h"
#include "net/codec.h"
#include "net/protocol_spec.h"
#include "net/reactor_transport.h"
#include "net/reactor.h"
#include "net/tcp_socket.h"
#include "site_role_transport.h"

namespace dsgm {
namespace {

struct TransportParam {
  const char* name;
  TransportFactory factory;
  /// Socket wirings report the wire bytes they move; loopback moves none.
  bool measures_wire_bytes;
};

class TransportConformanceTest : public ::testing::TestWithParam<TransportParam> {
 protected:
  std::unique_ptr<ClusterTransport> Make(int num_sites) {
    return GetParam().factory(num_sites);
  }

  /// Pop helper with a real deadline, for channels fed asynchronously: a
  /// transport that drops a frame makes the caller's size check fail with
  /// context instead of hanging the binary until the ctest timeout.
  template <typename T>
  std::vector<T> PopExactly(Channel<T>* channel, size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<T> out;
    while (out.size() < want && std::chrono::steady_clock::now() < deadline) {
      if (channel->TryPopBatch(&out, want - out.size()) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return out;
  }
};

TEST_P(TransportConformanceTest, EventBatchesArriveInOrderPerSite) {
  auto transport = Make(2);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 5; ++i) {
      EventBatch batch;
      batch.num_events = 1;
      batch.values = {s, i, i * i};
      ASSERT_TRUE(coordinator.events[static_cast<size_t>(s)]->Push(std::move(batch)));
    }
  }
  for (int s = 0; s < 2; ++s) {
    const std::vector<EventBatch> got = PopExactly(transport->site(s).events, 5);
    ASSERT_EQ(got.size(), 5u) << "site " << s;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)].values,
                (std::vector<int32_t>{s, i, i * i}));
    }
  }
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, CommandsReachTheRightSite) {
  auto transport = Make(3);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  for (int s = 0; s < 3; ++s) {
    RoundAdvance advance;
    advance.counter = 100 + s;
    advance.round = s;
    advance.probability = 0.5f / static_cast<float>(s + 1);
    ASSERT_TRUE(coordinator.commands[static_cast<size_t>(s)]->Push(advance));
  }
  for (int s = 0; s < 3; ++s) {
    const std::vector<RoundAdvance> got = PopExactly(transport->site(s).commands, 1);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].counter, 100 + s);
    EXPECT_EQ(got[0].round, s);
    EXPECT_EQ(got[0].probability, 0.5f / static_cast<float>(s + 1));
  }
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, UpdatesMergeFromAllSites) {
  auto transport = Make(4);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  for (int s = 0; s < 4; ++s) {
    UpdateBundle bundle;
    bundle.kind = UpdateBundle::Kind::kReports;
    bundle.site = s;
    bundle.reports = {{s, static_cast<uint32_t>(10 * s + 1)}};
    ASSERT_TRUE(transport->site(s).updates->Push(std::move(bundle)));
  }
  std::vector<UpdateBundle> got = PopExactly(coordinator.updates, 4);
  ASSERT_EQ(got.size(), 4u);
  std::vector<bool> seen(4, false);
  for (const UpdateBundle& bundle : got) {
    ASSERT_GE(bundle.site, 0);
    ASSERT_LT(bundle.site, 4);
    EXPECT_FALSE(seen[static_cast<size_t>(bundle.site)]);
    seen[static_cast<size_t>(bundle.site)] = true;
    ASSERT_EQ(bundle.reports.size(), 1u);
    EXPECT_EQ(bundle.reports[0].counter, bundle.site);
    EXPECT_EQ(bundle.reports[0].value, static_cast<uint32_t>(10 * bundle.site + 1));
  }
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, CloseDrainsThenReportsEnd) {
  auto transport = Make(1);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  for (int i = 0; i < 3; ++i) {
    EventBatch batch;
    batch.num_events = 1;
    batch.values.push_back(i);
    ASSERT_TRUE(coordinator.events[0]->Push(std::move(batch)));
  }
  coordinator.events[0]->Close();
  Channel<EventBatch>* site_events = transport->site(0).events;
  std::vector<EventBatch> got;
  size_t total = 0;
  while (true) {
    const size_t n = site_events->PopBatch(&got, 16);
    if (n == 0) break;
    total += n;
  }
  EXPECT_EQ(total, 3u);  // All pre-close items delivered before the end.
  // And the end state is sticky.
  EXPECT_EQ(site_events->PopBatch(&got, 16), 0u);
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, PushAfterCloseFails) {
  auto transport = Make(1);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  coordinator.commands[0]->Close();
  EXPECT_FALSE(coordinator.commands[0]->Push(RoundAdvance{}));
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, TryPopDoesNotBlockOnEmptyChannel) {
  auto transport = Make(1);
  std::vector<RoundAdvance> out;
  EXPECT_EQ(transport->site(0).commands->TryPopBatch(&out, 8), 0u);
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, LargeFrameSurvivesIntact) {
  auto transport = Make(1);
  EventBatch batch;
  batch.num_events = 20000;
  batch.values.reserve(100000);
  for (int i = 0; i < 100000; ++i) batch.values.push_back(i % 97);
  const EventBatch expected = batch;
  ASSERT_TRUE(transport->coordinator().events[0]->Push(std::move(batch)));
  const std::vector<EventBatch> got = PopExactly(transport->site(0).events, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0] == expected);
  transport->Shutdown();
  const TransportStats stats = transport->stats();
  EXPECT_EQ(stats.measured, GetParam().measures_wire_bytes);
  if (stats.measured) {
    EXPECT_GT(stats.bytes_down, 0u);
  }
}

TEST_P(TransportConformanceTest, ConcurrentBidirectionalTraffic) {
  constexpr int kFrames = 500;
  auto transport = Make(1);
  const CoordinatorEndpoints coordinator = transport->coordinator();
  const SiteEndpoints site = transport->site(0);

  std::thread downstream([&coordinator] {
    for (int i = 0; i < kFrames; ++i) {
      EventBatch batch;
      batch.num_events = 1;
      batch.values.push_back(i);
      ASSERT_TRUE(coordinator.events[0]->Push(std::move(batch)));
    }
  });
  std::thread site_echo([this, &site] {
    // The site drains events while pushing its own updates upstream.
    const std::vector<EventBatch> got = PopExactly(site.events, kFrames);
    ASSERT_EQ(got.size(), static_cast<size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      EXPECT_EQ(got[static_cast<size_t>(i)].values,
                std::vector<int32_t>{i});
      UpdateBundle bundle;
      bundle.kind = UpdateBundle::Kind::kReports;
      bundle.site = 0;
      bundle.reports = {{i, static_cast<uint32_t>(i)}};
      ASSERT_TRUE(site.updates->Push(std::move(bundle)));
    }
  });
  const std::vector<UpdateBundle> updates = PopExactly(coordinator.updates, kFrames);
  downstream.join();
  site_echo.join();
  ASSERT_EQ(updates.size(), static_cast<size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(updates[static_cast<size_t>(i)].reports[0].counter, i);
  }
  transport->Shutdown();
}

TEST_P(TransportConformanceTest, ShutdownIsIdempotent) {
  auto transport = Make(2);
  transport->Shutdown();
  transport->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformanceTest,
    ::testing::Values(
        TransportParam{"Loopback", MakeLoopbackTransport,
                       /*measures_wire_bytes=*/false},
        // The kLocalTcp backend's wiring: the coordinator's accept loop plus
        // one client-side connection and event loop per site.
        TransportParam{"LocalTcp", MakeSiteRoleTransport,
                       /*measures_wire_bytes=*/true},
        // Both ends on the edge-triggered epoll reactor, in one process.
        TransportParam{"ReactorEpoll",
                       [](int n) { return MakeReactorTransport(n); },
                       /*measures_wire_bytes=*/true}),
    [](const ::testing::TestParamInfo<TransportParam>& info) {
      return std::string(info.param.name);
    });

// --- Hello protocol versioning ------------------------------------------
//
// The coordinator's accept loop (ReactorCoordinator::AcceptSites) against
// raw peers: a version-mismatched hello is a deployment error, a peer that
// speaks before its hello is a stray to drop, and a current-version site is
// accepted without a hello back.

/// Liveness off: these peers send no heartbeats.
ReactorCoordinator::Options NoLivenessOptions() {
  ReactorCoordinator::Options options;
  options.liveness_timeout_ms = 0;
  return options;
}

/// Runs a one-site accept loop against a raw peer that sends `bytes` and
/// then waits for the coordinator to hang up; returns AcceptSites' status.
Status AcceptOnePeer(const std::vector<uint8_t>& bytes) {
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  if (!listener.ok()) return listener.status();
  const int port = listener->port();
  std::thread peer([port, &bytes] {
    StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
    if (!socket.ok()) return;
    (void)socket->SendAll(bytes.data(), bytes.size());
    uint8_t unused = 0;
    (void)socket->RecvAll(&unused, 1);
  });
  ReactorCoordinator coordinator(1, NoLivenessOptions());
  const Status accepted = coordinator.AcceptSites(&listener.value());
  listener->Close();
  coordinator.Shutdown();
  peer.join();
  return accepted;
}

/// Reads one length-prefixed frame from a blocking socket.
Status ReadOneFrame(TcpSocket* socket, Frame* frame) {
  uint8_t prefix[4];
  DSGM_RETURN_IF_ERROR(socket->RecvAll(prefix, 4));
  std::vector<uint8_t> payload(DecodeLengthPrefix(prefix));
  DSGM_RETURN_IF_ERROR(socket->RecvAll(payload.data(), payload.size()));
  return DecodeFramePayload(payload.data(), payload.size(), frame);
}

TEST(ProtocolVersionTest, MismatchedHelloIsRejectedWithClearStatus) {
  // A site one wire version behind (the last deployed build) or ahead:
  // perfectly valid framing, wrong protocol revision. Unlike a stray port
  // probe (dropped and re-accepted), this must fail the accept loop loudly
  // — both ends would otherwise hang or misparse each other's frames.
  for (const uint8_t version : {static_cast<uint8_t>(kProtocolVersion - 1),
                                static_cast<uint8_t>(kProtocolVersion + 1)}) {
    SCOPED_TRACE(::testing::Message() << "hello v" << int(version));
    Frame hello = MakeHello(/*site=*/0);
    hello.protocol_version = version;
    std::vector<uint8_t> bytes;
    AppendFrame(hello, &bytes);
    const Status accepted = AcceptOnePeer(bytes);
    EXPECT_EQ(accepted.code(), StatusCode::kFailedPrecondition) << accepted;
    EXPECT_NE(accepted.message().find("protocol version mismatch"),
              std::string::npos)
        << accepted;
  }
}

TEST(ProtocolVersionTest, V6HelloIsAVersionMismatch) {
  // A v6 site's hello, byte for byte: version 6, zigzag site 0, then the
  // capability varint v7 dropped (kCapCompression). The extra byte must not
  // turn the deployment error into a decode error or a dropped stray.
  const Status accepted = AcceptOnePeer(
      {4, 0, 0, 0, static_cast<uint8_t>(FrameType::kHello), 6, 0, 1});
  EXPECT_EQ(accepted.code(), StatusCode::kFailedPrecondition) << accepted;
  EXPECT_NE(accepted.message().find("peer speaks v6"), std::string::npos)
      << accepted;
}

TEST(ProtocolVersionTest, EarlyHeartbeatIsDroppedAsStray) {
  // A peer whose first frame is a kHeartbeat (never a hello) is line noise
  // as far as the handshake is concerned: it must be dropped and the slot
  // re-accepted, exactly like a port probe — not crash, not hang, not
  // occupy a site slot.
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int port = listener->port();

  // The early peer connects (and its bytes are in flight) BEFORE the real
  // site, so the accept loop — arrival order — must reject it to finish.
  StatusOr<TcpSocket> early_peer = TcpSocket::Connect("127.0.0.1", port);
  ASSERT_TRUE(early_peer.ok()) << early_peer.status();
  const std::vector<uint8_t> early_bytes = [] {
    std::vector<uint8_t> bytes;
    AppendFrame(MakeHeartbeat({}), &bytes);
    return bytes;
  }();
  ASSERT_TRUE(early_peer->SendAll(early_bytes.data(), early_bytes.size()).ok());
  std::thread real_site([port] {
    StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
    if (!socket.ok() || !SendHelloBlocking(&socket.value(), 0).ok()) return;
    uint8_t unused = 0;
    (void)socket->RecvAll(&unused, 1);  // Until the coordinator hangs up.
  });

  ReactorCoordinator coordinator(1, NoLivenessOptions());
  const Status accepted = coordinator.AcceptSites(&listener.value());
  EXPECT_TRUE(accepted.ok()) << accepted;
  listener->Close();
  coordinator.Shutdown();
  real_site.join();
}

TEST(ProtocolVersionTest, CurrentVersionHelloIsAccepted) {
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int port = listener->port();

  // SendHelloBlocking stamps the current kProtocolVersion. The handshake is
  // that one frame: the coordinator sends no hello back, so the first frame
  // the site reads is the coordinator's first lane traffic, here the close
  // of its command lane.
  Frame first;
  Status first_read = InternalError("peer never ran");
  std::thread peer([port, &first, &first_read] {
    StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
    if (!socket.ok()) {
      first_read = socket.status();
      return;
    }
    first_read = SendHelloBlocking(&socket.value(), /*site=*/0);
    if (first_read.ok()) first_read = ReadOneFrame(&socket.value(), &first);
  });

  ReactorCoordinator coordinator(1, NoLivenessOptions());
  const Status accepted = coordinator.AcceptSites(&listener.value());
  EXPECT_TRUE(accepted.ok()) << accepted;
  if (accepted.ok()) coordinator.commands(0)->Close();
  peer.join();
  ASSERT_TRUE(first_read.ok()) << first_read;
  EXPECT_EQ(first.type, FrameType::kChannelClose);
  EXPECT_EQ(first.channel, FrameType::kRoundAdvance);
  listener->Close();
  coordinator.Shutdown();
}

TEST(ReactorCoordinatorTest, StatsDuringAcceptDoNotRaceSlotPublication) {
  // Regression for a defect the thread-safety annotation pass surfaced:
  // bytes_up()/bytes_down() iterated the connection slots bare while
  // AcceptSites published them from the accept thread — mid-run stats were
  // fine only by accident of call order. The accessors take the slot lock
  // now, so sampling stats during an ongoing accept is legal; this test
  // does exactly that (TSan covers this suite in CI).
  constexpr int kSites = 3;
  StatusOr<TcpListener> listener = TcpListener::Listen(0, kSites + 2);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int port = listener->port();

  ReactorCoordinator::Options options;
  options.liveness_timeout_ms = 0;  // Hello-only peers must not be "dead".
  ReactorCoordinator coordinator(kSites, options);

  std::atomic<bool> stop{false};
  std::thread poller([&coordinator, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)coordinator.bytes_up();
      (void)coordinator.bytes_down();
    }
  });

  // The peers stay open past AcceptSites: an EOF mid-accept would count as
  // a defective connection, not the race under test.
  std::vector<TcpSocket> peers;
  std::thread sites([port, &peers] {
    for (int s = 0; s < kSites; ++s) {
      StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
      if (!socket.ok() || !SendHelloBlocking(&socket.value(), s).ok()) return;
      peers.push_back(std::move(socket).value());
      // Gaps between hellos widen the accept window the poller races.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const Status accepted = coordinator.AcceptSites(&listener.value());
  sites.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  ASSERT_TRUE(accepted.ok()) << accepted;
  ASSERT_EQ(peers.size(), static_cast<size_t>(kSites));
  for (int s = 0; s < kSites; ++s) {
    EXPECT_NE(coordinator.events(s), nullptr);
    EXPECT_NE(coordinator.commands(s), nullptr);
  }
  // Hellos are consumed on the blocking accept path before a connection
  // joins the reactor, so the post-accept counters legitimately read zero;
  // the assertions that matter here are TSan's.
  EXPECT_EQ(coordinator.bytes_down(), 0u);
  coordinator.Shutdown();
}

// --- Protocol conformance on the socket transport --------------------------
//
// Out-of-state frames (data before the hello, a duplicate hello, data after
// the terminal lane close) must drop the offending connection and increment
// `net.protocol.violations` — the table-driven contract of
// net/protocol_spec.h, asserted at both of the coordinator's integration
// points: the blocking accept loop and the reactor loop. The
// ProtocolConformanceTcpTest cases run with liveness OFF, where a dropped
// connection simply ends its reads (the merged update stream closes once
// no site can feed it); the ProtocolConformanceReactorTest cases run with
// liveness ON, where the same drop is surfaced as a site failure.

uint64_t ProtocolViolations() {
  return MetricsRegistry::Global().GetCounter(kProtocolViolationsMetric)->Value();
}

std::vector<uint8_t> EncodeFrames(const std::vector<Frame>& frames) {
  std::vector<uint8_t> bytes;
  for (const Frame& frame : frames) AppendFrame(frame, &bytes);
  return bytes;
}

/// Waits (bounded) until the coordinator's merged update stream ends:
/// every site connection's reads are over and no bundle is left to drain.
bool WaitUpdatesEnd(ReactorCoordinator* coordinator) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<UpdateBundle> drained;
  while (std::chrono::steady_clock::now() < deadline) {
    if (coordinator->updates()->TryPopBatch(&drained, 64) == 0 &&
        coordinator->merged_updates()->closed()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Accepts one raw peer that sends `peer_bytes` right after connecting,
/// with liveness off; returns true once its connection was dropped.
bool PeerIsDropped(const std::vector<uint8_t>& peer_bytes) {
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  if (!listener.ok()) return false;
  const int port = listener->port();
  std::thread peer([port, &peer_bytes] {
    StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
    if (!socket.ok()) return;
    (void)socket->SendAll(peer_bytes.data(), peer_bytes.size());
    // Drain until the coordinator hangs up.
    uint8_t unused = 0;
    while (socket->RecvAll(&unused, 1).ok()) {
    }
  });
  ReactorCoordinator coordinator(1, NoLivenessOptions());
  const Status accepted = coordinator.AcceptSites(&listener.value());
  EXPECT_TRUE(accepted.ok()) << accepted;
  const bool dropped = accepted.ok() && WaitUpdatesEnd(&coordinator);
  listener->Close();
  coordinator.Shutdown();
  peer.join();
  return dropped;
}

TEST(ProtocolConformanceTcpTest, SyncBeforeHelloIsCountedAndDropped) {
  MetricsRegistry::Global().ResetForTest();
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int port = listener->port();

  // The stray connects (and its bytes are in flight) BEFORE the real site,
  // so the accept loop — which takes connections in arrival order — must
  // reject it to finish. Data before the hello is the violation.
  StatusOr<TcpSocket> stray = TcpSocket::Connect("127.0.0.1", port);
  ASSERT_TRUE(stray.ok()) << stray.status();
  UpdateBundle sync;
  sync.kind = UpdateBundle::Kind::kSync;
  sync.site = 0;
  const std::vector<uint8_t> stray_bytes = EncodeFrames({MakeFrame(sync)});
  ASSERT_TRUE(stray->SendAll(stray_bytes.data(), stray_bytes.size()).ok());

  // The real site is a full site-role connection: its update reaching the
  // coordinator proves the slot went to it, not to the stray.
  StatusOr<TcpSocket> site_socket = TcpSocket::Connect("127.0.0.1", port);
  ASSERT_TRUE(site_socket.ok()) << site_socket.status();
  ASSERT_TRUE(SendHelloBlocking(&site_socket.value(), /*site=*/0).ok());

  ReactorCoordinator coordinator(1, NoLivenessOptions());
  const Status accepted = coordinator.AcceptSites(&listener.value());
  ASSERT_TRUE(accepted.ok()) << accepted;
  EXPECT_EQ(ProtocolViolations(), 1u);

  Reactor site_reactor;
  ReactorConnection::Options site_options;
  site_options.receive_direction = ProtocolDirection::kCoordinatorToSite;
  ReactorConnection site(&site_reactor, std::move(site_socket).value(), 0,
                         site_options);
  site_reactor.Start();
  site.Start();
  UpdateBundle bundle;
  bundle.site = 0;
  bundle.reports = {{7, 1}};
  ASSERT_TRUE(site.updates()->Push(std::move(bundle)));
  std::vector<UpdateBundle> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.empty() && std::chrono::steady_clock::now() < deadline) {
    if (coordinator.updates()->TryPopBatch(&got, 1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].reports[0].counter, 7);
  EXPECT_EQ(ProtocolViolations(), 1u);

  listener->Close();
  coordinator.Shutdown();
  site_reactor.Stop();
  site.ShutdownFromOwner();
}

TEST(ProtocolConformanceTcpTest, DuplicateHelloDropsTheConnection) {
  MetricsRegistry::Global().ResetForTest();
  // The second hello is the violation: one handshake per connection. The
  // accept loop consumes the first; the reactor loop drops on the second.
  EXPECT_TRUE(PeerIsDropped(EncodeFrames({MakeHello(0), MakeHello(0)})));
  EXPECT_EQ(ProtocolViolations(), 1u);
}

TEST(ProtocolConformanceTcpTest, UpdateAfterCloseDropsTheConnection) {
  MetricsRegistry::Global().ResetForTest();
  // Closing the update lane is the site's terminal act; an update bundle
  // after it violates the contract. The preceding telemetry frame is legal
  // in Draining and must NOT trip anything.
  SiteStatsReport stats;
  stats.events_processed = 5;
  EXPECT_TRUE(PeerIsDropped(EncodeFrames(
      {MakeHello(0), MakeChannelClose(FrameType::kUpdateBundle),
       MakeHeartbeat({}, stats), MakeFrame(UpdateBundle{})})));
  EXPECT_EQ(ProtocolViolations(), 1u);
}

/// Reactor-side harness: accepts one adversarial peer under a
/// ReactorCoordinator and returns the status on_site_failure captured.
class ProtocolConformanceReactorTest : public ::testing::Test {
 protected:
  /// Runs `peer_frames` (sent after the hello the accept loop consumes)
  /// against a one-site coordinator; returns the captured failure status,
  /// or OK if none arrived before the deadline.
  Status RunAdversarialPeer(const std::vector<Frame>& peer_frames) {
    StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
    if (!listener.ok()) return listener.status();
    const int port = listener->port();

    Mutex mu;
    Status captured;
    bool failed = false;
    ReactorCoordinator::Options options;
    // Liveness on: a protocol violation is then surfaced through the same
    // UNAVAILABLE site-failure path a vanished site uses.
    options.liveness_timeout_ms = 5000;
    options.on_site_failure = [&mu, &captured, &failed](int /*site*/,
                                                        const Status& status) {
      MutexLock lock(&mu);
      captured = status;
      failed = true;
    };
    ReactorCoordinator coordinator(1, options);

    std::thread peer([port, &peer_frames] {
      StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
      if (!socket.ok()) return;
      if (!SendHelloBlocking(&socket.value(), /*site=*/0).ok()) return;
      const std::vector<uint8_t> bytes = EncodeFrames(peer_frames);
      (void)socket->SendAll(bytes.data(), bytes.size());
      uint8_t unused = 0;
      (void)socket->RecvAll(&unused, 1);  // Wait for the coordinator's drop.
    });

    Status result;
    const Status accepted = coordinator.AcceptSites(&listener.value());
    if (accepted.ok()) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        {
          MutexLock lock(&mu);
          if (failed) {
            result = captured;
            break;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      result = accepted;
    }
    listener->Close();
    coordinator.Shutdown();
    peer.join();
    return result;
  }
};

TEST_F(ProtocolConformanceReactorTest, DuplicateHelloDropsTheSite) {
  MetricsRegistry::Global().ResetForTest();
  const Status failure = RunAdversarialPeer({MakeHello(0)});
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable) << failure;
  EXPECT_NE(failure.message().find("violated the protocol"), std::string::npos)
      << failure;
  EXPECT_NE(failure.message().find("hello"), std::string::npos) << failure;
  EXPECT_EQ(ProtocolViolations(), 1u);
}

TEST_F(ProtocolConformanceReactorTest, UpdateAfterCloseDropsTheSite) {
  MetricsRegistry::Global().ResetForTest();
  SiteStatsReport stats;
  stats.events_processed = 5;
  const Status failure = RunAdversarialPeer(
      {MakeFrame(UpdateBundle{}), MakeChannelClose(FrameType::kUpdateBundle),
       MakeHeartbeat({}, stats), MakeFrame(UpdateBundle{})});
  EXPECT_EQ(failure.code(), StatusCode::kUnavailable) << failure;
  EXPECT_NE(failure.message().find("update_bundle in state draining"),
            std::string::npos)
      << failure;
  EXPECT_EQ(ProtocolViolations(), 1u);
}

TEST(ProtocolConformanceReactorAcceptTest, SyncBeforeHelloIsCountedAsStray) {
  MetricsRegistry::Global().ResetForTest();
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const int port = listener->port();

  ReactorCoordinator::Options options;
  options.liveness_timeout_ms = 0;
  ReactorCoordinator coordinator(1, options);

  // Stray first (arrival order = accept order), real site second.
  StatusOr<TcpSocket> stray = TcpSocket::Connect("127.0.0.1", port);
  ASSERT_TRUE(stray.ok()) << stray.status();
  UpdateBundle sync;
  sync.kind = UpdateBundle::Kind::kSync;
  sync.site = 0;
  const std::vector<uint8_t> stray_bytes = EncodeFrames({MakeFrame(sync)});
  ASSERT_TRUE(stray->SendAll(stray_bytes.data(), stray_bytes.size()).ok());

  std::thread real_site([port] {
    StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
    if (!socket.ok()) return;
    (void)SendHelloBlocking(&socket.value(), /*site=*/0);
    uint8_t unused = 0;
    (void)socket->RecvAll(&unused, 1);
  });

  const Status accepted = coordinator.AcceptSites(&listener.value());
  EXPECT_TRUE(accepted.ok()) << accepted;
  EXPECT_EQ(ProtocolViolations(), 1u);
  listener->Close();
  coordinator.Shutdown();
  real_site.join();
}

}  // namespace
}  // namespace dsgm
