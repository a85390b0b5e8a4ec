// The liveness protocol end to end, in one process: a kLocalTcp session
// expecting external sites is fed fake site connections that handshake and
// then misbehave — going silent (heartbeat timeout) or hanging up mid-run
// (EOF) — and the run must fail with an UNAVAILABLE status naming the site
// instead of stalling (the regression this subsystem exists to kill), with
// healthy runs unaffected. Also covers heartbeat robustness: a connection
// whose only traffic is heartbeats stays alive exactly until it stops
// sending them.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bayes/repository.h"
#include "dsgm/dsgm.h"
#include "net/codec.h"
#include "net/tcp_socket.h"

namespace dsgm {
namespace {

constexpr int kLivenessTimeoutMs = 400;

/// A fake external site: completes the hello handshake, then runs
/// `behavior` with the raw socket. Never speaks the real site protocol.
class FakeSite {
 public:
  FakeSite(int port, int site_id, std::function<void(TcpSocket*)> behavior) {
    thread_ = std::thread([port, site_id, behavior] {
      StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
      for (int retry = 0; !socket.ok() && retry < 100; ++retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        socket = TcpSocket::Connect("127.0.0.1", port);
      }
      if (!socket.ok()) return;
      std::vector<uint8_t> hello;
      AppendFrame(MakeHello(site_id), &hello);
      if (!socket->SendAll(hello.data(), hello.size()).ok()) return;
      behavior(&socket.value());
    });
  }
  ~FakeSite() { join(); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

void SendHeartbeats(TcpSocket* socket, int count, int interval_ms) {
  for (int i = 0; i < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    std::vector<uint8_t> beat;
    AppendFrame(MakeHeartbeat({}), &beat);
    if (!socket->SendAll(beat.data(), beat.size()).ok()) return;
  }
}

StatusOr<std::unique_ptr<Session>> BuildExternalSession(
    const BayesianNetwork& net, int sites, const std::string& port_file) {
  return SessionBuilder(net)
      .WithBackend(Backend::kLocalTcp)
      .WithExternalSites()
      .WithStrategy(TrackingStrategy::kUniform)
      .WithSites(sites)
      .WithSeed(4242)
      .WithListenPort(0)
      .WithPortFile(port_file)
      .WithLivenessTimeout(kLivenessTimeoutMs)
      .Build();
}

int ReadPortFile(const std::string& path) {
  for (int retry = 0; retry < 500; ++retry) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

std::string TempPortFile(const char* tag) {
  return ::testing::TempDir() + "/dsgm_liveness_" + tag + "_" +
         std::to_string(::getpid()) + ".port";
}

TEST(LivenessTest, SilentSiteFailsTheRunWithUnavailable) {
  const BayesianNetwork net = StudentNetwork();
  const std::string port_file = TempPortFile("silent");

  // The accept loop blocks until the site connects, so start it first.
  std::unique_ptr<FakeSite> site;
  std::thread connector([&site, &port_file] {
    const int port = ReadPortFile(port_file);
    ASSERT_GT(port, 0);
    // Handshake, then total silence: no heartbeats, no data, socket open.
    site = std::make_unique<FakeSite>(port, /*site_id=*/0, [](TcpSocket* socket) {
      uint8_t unused = 0;
      (void)socket->RecvAll(&unused, 1);  // Parked until the coordinator closes.
    });
  });

  StatusOr<std::unique_ptr<Session>> session =
      BuildExternalSession(net, /*sites=*/1, port_file);
  connector.join();
  ASSERT_TRUE(session.ok()) << session.status();

  // The run must fail within a few timeouts — not hang. Finish() exercises
  // the whole failure path: coordinator exit, cancelled syncs, teardown.
  const auto started = std::chrono::steady_clock::now();
  StatusOr<RunReport> report = (*session)->Finish();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable) << report.status();
  EXPECT_NE(report.status().message().find("site 0"), std::string::npos)
      << report.status();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            20 * kLivenessTimeoutMs);
  // The failure is sticky: queries after a failed run report it too.
  StatusOr<ModelView> view = (*session)->Snapshot();
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kUnavailable);
  session->reset();  // Closes the connection, releasing the fake site.
  site->join();
}

TEST(LivenessTest, SiteHangupMidRunFailsFastWithUnavailable) {
  const BayesianNetwork net = StudentNetwork();
  const std::string port_file = TempPortFile("hangup");

  std::unique_ptr<FakeSite> healthy;
  std::unique_ptr<FakeSite> doomed;
  std::thread connector([&healthy, &doomed, &port_file] {
    const int port = ReadPortFile(port_file);
    ASSERT_GT(port, 0);
    // Site 0 stays alive (heartbeating) for the whole test; site 1 hangs
    // up shortly after the handshake — a crashed process, kernel-closed.
    healthy = std::make_unique<FakeSite>(port, 0, [](TcpSocket* socket) {
      SendHeartbeats(socket, /*count=*/40, /*interval_ms=*/50);
    });
    doomed = std::make_unique<FakeSite>(port, 1, [](TcpSocket* socket) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      socket->Close();
    });
  });

  StatusOr<std::unique_ptr<Session>> session =
      BuildExternalSession(net, /*sites=*/2, port_file);
  connector.join();
  ASSERT_TRUE(session.ok()) << session.status();

  // EOF detection is immediate — no need to wait out the liveness timeout.
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable) << report.status();
  EXPECT_NE(report.status().message().find("site 1"), std::string::npos)
      << report.status();
  session->reset();
  healthy->join();
  doomed->join();
}

TEST(LivenessTest, HeartbeatsAloneKeepASiteAlive) {
  const BayesianNetwork net = StudentNetwork();
  const std::string port_file = TempPortFile("beats");

  std::unique_ptr<FakeSite> site;
  std::thread connector([&site, &port_file] {
    const int port = ReadPortFile(port_file);
    ASSERT_GT(port, 0);
    // Heartbeats for ~4 liveness timeouts, then silence. Liveness is
    // per-connection: the beats must keep THIS connection alive while they
    // flow, and nothing once they stop.
    site = std::make_unique<FakeSite>(port, 0, [](TcpSocket* socket) {
      SendHeartbeats(socket, /*count=*/16,
                     /*interval_ms=*/kLivenessTimeoutMs / 4);
      uint8_t unused = 0;
      (void)socket->RecvAll(&unused, 1);
    });
  });

  StatusOr<std::unique_ptr<Session>> session =
      BuildExternalSession(net, /*sites=*/1, port_file);
  connector.join();
  ASSERT_TRUE(session.ok()) << session.status();

  // While heartbeats flow, the run is healthy: Snapshot succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(2 * kLivenessTimeoutMs));
  StatusOr<ModelView> alive_view = (*session)->Snapshot();
  EXPECT_TRUE(alive_view.ok()) << alive_view.status();

  // After the beats stop, the deadline fires and the run fails.
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable) << report.status();
  session->reset();
  site->join();
}

TEST(LivenessTest, HealthyInProcessRunIsUnaffectedByLiveness) {
  // Internal sites heartbeat automatically; a short timeout must not
  // misfire on a healthy run, including across idle gaps longer than the
  // timeout where only heartbeats flow.
  const BayesianNetwork net = StudentNetwork();
  StatusOr<std::unique_ptr<Session>> session =
      SessionBuilder(net)
          .WithBackend(Backend::kLocalTcp)
          .WithStrategy(TrackingStrategy::kUniform)
          .WithSites(2)
          .WithSeed(99)
          .WithLivenessTimeout(kLivenessTimeoutMs)
          .WithHeartbeatInterval(kLivenessTimeoutMs / 8)
          .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->StreamGroundTruth(5000).ok());
  // Idle gap: no events, only heartbeats keep the sites alive.
  std::this_thread::sleep_for(std::chrono::milliseconds(2 * kLivenessTimeoutMs));
  ASSERT_TRUE((*session)->StreamGroundTruth(5000).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, 10000);
  EXPECT_LT(report->max_counter_rel_error, 0.1);
}

}  // namespace
}  // namespace dsgm
