// End-to-end cluster runs over real localhost TCP sockets: a kThreads
// Session over the kLocalTcp site-role wiring (MakeSiteRoleTransport) and
// over MakeReactorTransport must satisfy the same correctness bounds as the
// in-process loopback run (tests/cluster_test.cc), with every frame
// codec-serialized through the kernel socket layer.

#include <gtest/gtest.h>

#include <memory>

#include "bayes/repository.h"
#include "dsgm/dsgm.h"
#include "net/cluster_transport.h"
#include "site_role_transport.h"

namespace dsgm {
namespace {

RunReport RunWithTransport(const BayesianNetwork& net, TrackingStrategy strategy,
                           int sites, int64_t events, TransportFactory transport) {
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(strategy)
      .WithSites(sites)
      .WithEpsilon(0.1)
      .WithSeed(12345);
  if (transport) builder.WithTransport(std::move(transport));
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  EXPECT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE((*session)->StreamGroundTruth(events).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

struct NetClusterParam {
  const char* name;
  TransportFactory factory;
};

/// Both socket wirings (one loop per site, as kLocalTcp runs its sites, and
/// one shared site loop) must meet the same end-to-end bounds.
class NetClusterTest : public ::testing::TestWithParam<NetClusterParam> {};

TEST_P(NetClusterTest, ExactModeOverTcpReproducesCountsExactly) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result = RunWithTransport(net, TrackingStrategy::kExactMle, 3,
                                            20000, GetParam().factory);
  EXPECT_EQ(result.events_processed, 20000);
  EXPECT_DOUBLE_EQ(result.max_counter_rel_error, 0.0);
  EXPECT_EQ(result.comm.update_messages,
            static_cast<uint64_t>(20000 * 2 * net.num_variables()));
}

TEST_P(NetClusterTest, ApproxModeOverTcpStaysWithinValidationBound) {
  // The acceptance bar for a transport: >= 2 sites, >= 50k events over
  // localhost TCP, and the same max_counter_rel_error bound as the
  // in-process run (cluster_test.cc's ApproxModeBoundedError).
  const BayesianNetwork net = StudentNetwork();
  const RunReport result = RunWithTransport(net, TrackingStrategy::kUniform, 4,
                                            50000, GetParam().factory);
  EXPECT_EQ(result.events_processed, 50000);
  // 0.1, not 0.05: in-flight reports at shutdown make the realized error
  // scheduling-dependent, and on loaded single-core machines the tighter
  // bound fails ~1/15 runs on an unmodified tree (same rationale as
  // ClusterTest.SingleSiteWorks and session_test.cc).
  EXPECT_LT(result.max_counter_rel_error, 0.1);
  // <=, not <: every-increment-reports (exactly 2 * num_variables per
  // event) is legal protocol behavior — under heavy scheduling contention
  // the sites can drain the whole stream at p = 1.0 before the first round
  // advance reaches them. The guarantee is "never MORE than exact mode".
  EXPECT_LE(result.comm.update_messages,
            static_cast<uint64_t>(50000 * 2 * net.num_variables()));
}

TEST_P(NetClusterTest, TransportMeasuresRealBytes) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result = RunWithTransport(net, TrackingStrategy::kUniform, 2,
                                            10000, GetParam().factory);
  EXPECT_TRUE(result.transport_measured);
  // Every event crosses the wire downstream, and reports flow upstream.
  // Event batches are bit-packed, so the floor is the information in the
  // events: ceil(log2(cardinality)) bits per value (6 bits per Student
  // event, 7500 bytes for 10000 events).
  uint64_t bits_per_event = 0;
  for (int v = 0; v < net.num_variables(); ++v) {
    uint64_t bits = 0;
    while ((uint64_t{1} << bits) < static_cast<uint64_t>(net.cardinality(v))) {
      ++bits;
    }
    bits_per_event += bits;
  }
  EXPECT_GT(result.transport_bytes_down, 10000 * bits_per_event / 8);
  EXPECT_GT(result.transport_bytes_up, 0u);
}

TEST_P(NetClusterTest, TcpAndLoopbackAgreeOnProtocolTraffic) {
  // The transport must be invisible to the protocol: same seed, same
  // strategy => identical logical message counts on both substrates
  // (scheduling can only reorder, not create or destroy updates, because
  // reports are Bernoulli draws from per-site RNGs and rounds are
  // threshold-driven... in exact mode there is no randomness at all).
  const BayesianNetwork net = StudentNetwork();
  const RunReport a = RunWithTransport(net, TrackingStrategy::kExactMle, 3,
                                       15000, TransportFactory());
  const RunReport b = RunWithTransport(net, TrackingStrategy::kExactMle, 3,
                                       15000, GetParam().factory);
  EXPECT_EQ(a.comm.update_messages, b.comm.update_messages);
  EXPECT_EQ(a.comm.broadcast_messages, b.comm.broadcast_messages);
}

INSTANTIATE_TEST_SUITE_P(
    SocketTransports, NetClusterTest,
    ::testing::Values(NetClusterParam{"LocalTcp", MakeSiteRoleTransport},
                      NetClusterParam{"Reactor",
                                      [](int n) {
                                        return MakeReactorTransport(n);
                                      }}),
    [](const ::testing::TestParamInfo<NetClusterParam>& info) {
      return std::string(info.param.name);
    });

TEST(NetClusterTest, LoopbackReportsNoMeasuredBytes) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result = RunWithTransport(net, TrackingStrategy::kUniform, 2,
                                            5000, TransportFactory());
  EXPECT_FALSE(result.transport_measured);
  EXPECT_EQ(result.transport_bytes_up, 0u);
}

}  // namespace
}  // namespace dsgm
