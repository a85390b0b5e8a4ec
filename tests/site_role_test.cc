// The site role on its client-side ReactorConnection
// (cluster/remote_runner.h): the heartbeat echo loop that feeds the
// coordinator's skew estimator, coalesced upstream writes, and the
// final-counts-then-linger shutdown handshake the coordinator's liveness
// policy depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bayes/repository.h"
#include "cluster/remote_runner.h"
#include "common/timer.h"
#include "net/codec.h"
#include "net/reactor.h"
#include "net/reactor_transport.h"
#include "net/tcp_socket.h"

namespace dsgm {
namespace {

/// Reads one frame (envelopes unwrapped) from a blocking socket.
Status ReadOneFrame(TcpSocket* socket, Frame* frame) {
  uint8_t prefix[4];
  DSGM_RETURN_IF_ERROR(socket->RecvAll(prefix, 4));
  std::vector<uint8_t> payload(DecodeLengthPrefix(prefix));
  DSGM_RETURN_IF_ERROR(socket->RecvAll(payload.data(), payload.size()));
  return DecodeFramePayload(payload.data(), payload.size(), frame);
}

/// Reads frames until one satisfies `match`; false on a read error (the
/// socket's receive timeout bounds the wait).
template <typename Match>
bool ReadUntil(TcpSocket* socket, Frame* frame, Match match) {
  while (ReadOneFrame(socket, frame).ok()) {
    if (match(*frame)) return true;
  }
  return false;
}

TEST(SiteRoleTest, CoordinatorEchoIsReflectedInTheNextHeartbeat) {
  // A raw coordinator: it echoes one heartbeat with a recognizable clock
  // value; the site's heartbeat timer must reflect that value — plus its
  // own receive time — in a later beat. That is the site half of the NTP
  // loop the coordinator's skew estimator runs on.
  const BayesianNetwork net = StudentNetwork();
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  RemoteSiteConfig config;
  config.port = listener->port();
  config.heartbeat_interval_ms = 20;
  StatusOr<RemoteSiteResult> result = InternalError("site never ran");
  std::thread site([&net, &config, &result] {
    result = RunRemoteSite(net, config);
  });

  StatusOr<TcpSocket> socket = listener->Accept();
  ASSERT_TRUE(socket.ok()) << socket.status();
  socket->SetRecvTimeout(10000);
  StatusOr<int32_t> hello = ReadHelloBlocking(&socket.value());
  ASSERT_TRUE(hello.ok()) << hello.status();

  Frame frame;
  const auto is_heartbeat = [](const Frame& f) {
    return f.type == FrameType::kHeartbeat;
  };
  ASSERT_TRUE(ReadUntil(&socket.value(), &frame, is_heartbeat));
  EXPECT_EQ(frame.hb.echo_nanos, 0);  // Nothing to reflect yet.

  constexpr int64_t kEchoNanos = 123456789;
  HeartbeatTimestamps echo;
  echo.send_nanos = kEchoNanos;
  const int64_t echo_sent = NowNanos();
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat(echo), &bytes);
  ASSERT_TRUE(socket->SendAll(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(ReadUntil(&socket.value(), &frame, [](const Frame& f) {
    return f.type == FrameType::kHeartbeat && f.hb.echo_nanos == kEchoNanos;
  }));
  // One process, one clock: the echo arrived after we sent it, and the
  // reflecting beat was built after the echo arrived.
  EXPECT_GE(frame.hb.echo_recv_nanos, echo_sent);
  EXPECT_GE(frame.hb.send_nanos, frame.hb.echo_recv_nanos);

  // End the run: closing both coordinator lanes finishes the SiteNode,
  // which reports its final counts; then hang up to release the linger.
  bytes.clear();
  AppendFrame(MakeChannelClose(FrameType::kEventBatch), &bytes);
  AppendFrame(MakeChannelClose(FrameType::kRoundAdvance), &bytes);
  ASSERT_TRUE(socket->SendAll(bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(ReadUntil(&socket.value(), &frame, [](const Frame& f) {
    return f.type == FrameType::kUpdateBundle &&
           f.bundle.kind == UpdateBundle::Kind::kFinalCounts;
  }));
  socket->Close();
  site.join();
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(SiteRoleTest, StagedUpdateBurstArrivesCompleteAndInOrder) {
  // Every bundle is staged into the outbox before the site's loop runs at
  // all, so the loop's first flush writes the whole burst coalesced; the
  // coordinator must still see every bundle, once, in push order.
  constexpr int kBundles = 2000;
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();
  StatusOr<TcpSocket> socket =
      TcpSocket::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(socket.ok()) << socket.status();
  ASSERT_TRUE(SendHelloBlocking(&socket.value(), /*site=*/0).ok());
  ReactorCoordinator::Options coordinator_options;
  coordinator_options.liveness_timeout_ms = 0;
  ReactorCoordinator coordinator(1, coordinator_options);
  ASSERT_TRUE(coordinator.AcceptSites(&listener.value()).ok());

  Reactor reactor;
  ReactorConnection::Options options;
  options.receive_direction = ProtocolDirection::kCoordinatorToSite;
  ReactorConnection connection(&reactor, std::move(socket).value(), 0, options);
  connection.Start();
  for (int i = 0; i < kBundles; ++i) {
    UpdateBundle bundle;
    bundle.site = 0;
    bundle.reports = {{i, static_cast<uint32_t>(i + 1)}};
    ASSERT_TRUE(connection.updates()->Push(std::move(bundle)));
  }
  EXPECT_EQ(connection.bytes_sent(), 0u);  // Staged, not written.
  reactor.Start();

  std::vector<UpdateBundle> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < static_cast<size_t>(kBundles) &&
         std::chrono::steady_clock::now() < deadline) {
    if (coordinator.updates()->TryPopBatch(&got, kBundles - got.size()) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(got.size(), static_cast<size_t>(kBundles));
  for (int i = 0; i < kBundles; ++i) {
    ASSERT_EQ(got[static_cast<size_t>(i)].reports.size(), 1u);
    EXPECT_EQ(got[static_cast<size_t>(i)].reports[0].counter, i);
  }

  listener->Close();
  coordinator.Shutdown();
  reactor.Stop();
  connection.ShutdownFromOwner();
}

TEST(SiteRoleTest, FinalCountsArriveThenTheSiteLingersUntilClosed) {
  // Against the real coordinator side with liveness on: the site reports
  // exact final counts, then keeps its connection open (heartbeating, so
  // it is never declared dead) until the coordinator hangs up — a mid-run
  // EOF would otherwise read as a site failure.
  constexpr int kEvents = 10;
  const BayesianNetwork net = StudentNetwork();
  StatusOr<TcpListener> listener = TcpListener::Listen(0, 4);
  ASSERT_TRUE(listener.ok()) << listener.status();

  std::atomic<bool> site_failed{false};
  ReactorCoordinator::Options coordinator_options;
  coordinator_options.liveness_timeout_ms = 1000;
  coordinator_options.on_site_failure = [&site_failed](int, const Status&) {
    site_failed.store(true);
  };
  ReactorCoordinator coordinator(1, coordinator_options);

  RemoteSiteConfig config;
  config.port = listener->port();
  config.heartbeat_interval_ms = 50;
  std::atomic<bool> site_done{false};
  StatusOr<RemoteSiteResult> result = InternalError("site never ran");
  std::thread site([&] {
    result = RunRemoteSite(net, config);
    site_done.store(true);
  });
  ASSERT_TRUE(coordinator.AcceptSites(&listener.value()).ok());

  EventBatch batch;
  batch.num_events = kEvents;
  // All-zero assignments are valid for every variable.
  batch.values.assign(static_cast<size_t>(kEvents * net.num_variables()), 0);
  ASSERT_TRUE(coordinator.events(0)->Push(std::move(batch)));
  coordinator.events(0)->Close();
  coordinator.commands(0)->Close();

  uint64_t final_total = 0;
  bool got_final = false;
  std::vector<UpdateBundle> bundles;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_final && std::chrono::steady_clock::now() < deadline) {
    bundles.clear();
    if (coordinator.updates()->TryPopBatch(&bundles, 64) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (const UpdateBundle& bundle : bundles) {
      if (bundle.kind != UpdateBundle::Kind::kFinalCounts) continue;
      got_final = true;
      for (const CounterReport& report : bundle.reports) {
        final_total += report.value;
      }
    }
  }
  ASSERT_TRUE(got_final);
  // Each event bumps a joint and a parent counter per variable.
  EXPECT_EQ(final_total,
            static_cast<uint64_t>(kEvents * 2 * net.num_variables()));

  // Several heartbeat periods and more than the liveness timeout: still
  // lingering, still alive.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_FALSE(site_done.load());
  EXPECT_FALSE(site_failed.load());

  listener->Close();
  coordinator.Shutdown();  // The hangup releases the linger.
  site.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->events_processed, kEvents);
}

}  // namespace
}  // namespace dsgm
