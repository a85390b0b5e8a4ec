// Tests for the observability layer (common/metrics.h): registry and
// histogram semantics, the multi-writer lock-free contract (this suite is
// in the TSan CI regex — 8 writers + a concurrent snapshotting reader must
// be race-free), trace-ring overflow, the stats in the telemetry frame
// (round-trip, truncation, attribution by connection at the reactor), and
// an end-to-end kLocalTcp run whose coordinator health table must converge
// on the sites' true totals.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bayes/repository.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "dsgm/dsgm.h"
#include "net/codec.h"
#include "net/tcp_socket.h"

namespace dsgm {
namespace {

// --- Registry and instruments ---------------------------------------------

TEST(MetricsTest, SameNameReturnsSameHandle) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test.registry.c"),
            registry.GetCounter("test.registry.c"));
  EXPECT_EQ(registry.GetGauge("test.registry.g"),
            registry.GetGauge("test.registry.g"));
  EXPECT_EQ(registry.GetHistogram("test.registry.h"),
            registry.GetHistogram("test.registry.h"));
  // Distinct kinds with the same name are distinct instruments.
  EXPECT_NE(static_cast<void*>(registry.GetCounter("test.registry.same")),
            static_cast<void*>(registry.GetGauge("test.registry.same")));
}

TEST(MetricsTest, CounterAndGaugeUpdatesLandInSnapshots) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.basics.counter");
  Gauge* gauge = registry.GetGauge("test.basics.gauge");
  const uint64_t counter_before = counter->Value();
  counter->Increment();
  counter->Add(41);
  gauge->Set(100);
  gauge->Add(-58);

  EXPECT_EQ(counter->Value(), counter_before + 42);
  EXPECT_EQ(gauge->Value(), 42);

  const MetricsSnapshot snapshot = registry.Snapshot();
  const auto* counter_value = snapshot.FindCounter("test.basics.counter");
  ASSERT_NE(counter_value, nullptr);
  EXPECT_EQ(counter_value->value, counter_before + 42);
  const auto* gauge_value = snapshot.FindGauge("test.basics.gauge");
  ASSERT_NE(gauge_value, nullptr);
  EXPECT_EQ(gauge_value->value, 42);
  EXPECT_EQ(snapshot.FindCounter("test.basics.nonexistent"), nullptr);

  // Snapshots are name-sorted so successive dumps diff cleanly.
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
}

TEST(MetricsTest, KillSwitchDropsUpdates) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.killswitch.counter");
  Histogram* histogram = registry.GetHistogram("test.killswitch.h_ns");
  const uint64_t before = counter->Value();
  const uint64_t samples_before = histogram->Stats().count;

  SetMetricsEnabled(false);
  counter->Add(1000);
  histogram->Record(1000);
  Trace(TraceEventType::kRoundAdvance, 0, 0);
  SetMetricsEnabled(true);

  EXPECT_EQ(counter->Value(), before);
  EXPECT_EQ(histogram->Stats().count, samples_before);
  counter->Increment();
  EXPECT_EQ(counter->Value(), before + 1);
}

TEST(MetricsTest, HistogramCountSumMaxAreExactQuantilesAreBounded) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.histogram.exact_ns");
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; ++v) {
    histogram->Record(v);
    sum += v;
  }
  const HistogramStats stats = histogram->Stats();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.sum, sum);
  EXPECT_EQ(stats.max, 1000u);
  EXPECT_DOUBLE_EQ(stats.mean(), static_cast<double>(sum) / 1000.0);
  // Quantiles are log2-bucket upper bounds: >= the true quantile, < 2x it.
  EXPECT_GE(stats.p50, 500u);
  EXPECT_LT(stats.p50, 1000u);
  EXPECT_GE(stats.p99, 990u);
  EXPECT_LT(stats.p99, 2u * 990u);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kBuckets - 1);
  // A value always falls at or under its bucket's upper bound.
  for (uint64_t v : {uint64_t{1}, uint64_t{7}, uint64_t{1000},
                     uint64_t{1} << 40}) {
    EXPECT_GE(Histogram::BucketUpperBound(Histogram::BucketOf(v)), v);
  }
}

// The lock-free contract under fire: 8 writers hammer one counter, one
// gauge, and one histogram while a reader snapshots continuously. TSan
// must stay quiet (CI runs this suite under -fsanitize=thread) and the
// post-join totals must be exact — relaxed atomics lose ordering, never
// increments.
TEST(MetricsTest, EightWriterHammerWithConcurrentReaderKeepsExactTotals) {
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 50000;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.hammer.counter");
  Gauge* gauge = registry.GetGauge("test.hammer.gauge");
  Histogram* histogram = registry.GetHistogram("test.hammer.h_ns");

  std::atomic<bool> done{false};
  std::thread reader([&done, &registry] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_NE(snapshot.FindCounter("test.hammer.counter"), nullptr);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([counter, gauge, histogram, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        gauge->Add(1);
        histogram->Record(i % 1024);
        Trace(TraceEventType::kSyncMessage, w, static_cast<int64_t>(i));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(counter->Value(), kWriters * kPerWriter);
  EXPECT_EQ(gauge->Value(), static_cast<int64_t>(kWriters * kPerWriter));
  EXPECT_EQ(histogram->Stats().count, kWriters * kPerWriter);
}

TEST(MetricsTest, JsonLineCarriesEverySection) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.jsonline.counter")->Increment();
  registry.GetHistogram("test.jsonline.h_ns")->Record(7);
  MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.captured_nanos = 1234567890;
  SiteHealth site;
  site.site = 0;
  site.alive = true;
  site.heartbeat_age_ms = 1.5;
  site.syncs_sent = 9;
  snapshot.sites.push_back(site);

  const std::string line = MetricsSnapshotToJsonLine(snapshot);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"t_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(line.find("\"test.jsonline.counter\":"), std::string::npos);
  EXPECT_NE(line.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(line.find("\"test.jsonline.h_ns\":{\"count\":"), std::string::npos);
  EXPECT_NE(line.find("\"sites\":[{\"site\":0,\"alive\":true,\"hb_age_ms\":1.500"),
            std::string::npos);
  EXPECT_NE(line.find("\"syncs\":9"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(MetricsTest, DumperEmitsPeriodicLinesPlusFinal) {
  std::ostringstream out;
  std::atomic<int> calls{0};
  {
    MetricsDumper dumper(/*period_ms=*/5, &out, [&calls] {
      calls.fetch_add(1);
      MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
      snapshot.captured_nanos = NowNanos();
      return snapshot;
    });
    // Wait for at least one periodic line (deadline, not a fixed sleep, so
    // sanitizer-slowed runs don't flake); Stop() then adds the final line.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (calls.load() < 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    dumper.Stop();
    dumper.Stop();  // idempotent
  }
  const std::string dump = out.str();
  int lines = 0;
  std::istringstream stream(dump);
  for (std::string line; std::getline(stream, line);) {
    ++lines;
    EXPECT_EQ(line.compare(0, 8, "{\"t_ms\":"), 0) << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  // At least one periodic line plus the final one from Stop().
  EXPECT_GE(lines, 2);
  EXPECT_EQ(calls.load(), lines);
}

// --- Trace ring ------------------------------------------------------------

TEST(TraceRingTest, OverflowKeepsTheNewestEvents) {
  TraceRing ring;
  const size_t total = TraceRing::kCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    ring.Record(TraceEventType::kRoundAdvance, 1, static_cast<int64_t>(i));
  }
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), TraceRing::kCapacity);
  // Oldest-first, and the oldest 100 were overwritten.
  EXPECT_EQ(events.front().arg, 100);
  EXPECT_EQ(events.back().arg, static_cast<int64_t>(total - 1));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, events[i - 1].arg + 1);
    EXPECT_GE(events[i].t_nanos, events[i - 1].t_nanos);
  }
}

TEST(TraceRingTest, PartialRingSnapshotsOldestFirst) {
  TraceRing ring;
  ring.Record(TraceEventType::kSnapshotPublish, 2, 10);
  ring.Record(TraceEventType::kSnapshotDefer, 3, 20);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kSnapshotPublish);
  EXPECT_EQ(events[0].site, 2);
  EXPECT_EQ(events[0].arg, 10);
  EXPECT_EQ(events[1].type, TraceEventType::kSnapshotDefer);
}

TEST(TraceRingTest, MergedTimelineSplicesThreadsTimeSorted) {
  // Three threads trace with a sentinel site id; the merged timeline must
  // contain all of their events (rings outlive joined threads) in
  // timestamp order.
  constexpr int32_t kSentinelSite = 7777;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Trace(TraceEventType::kHeartbeat, kSentinelSite, t * 1000 + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<TraceEvent> timeline = MergedTraceTimeline();
  int sentinel_events = 0;
  for (size_t i = 0; i < timeline.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(timeline[i].t_nanos, timeline[i - 1].t_nanos);
    }
    if (timeline[i].site == kSentinelSite) ++sentinel_events;
  }
  EXPECT_GE(sentinel_events, 3 * kPerThread);
  EXPECT_FALSE(FormatTraceTimeline(timeline).empty());
}

// --- Stats in the telemetry frame -------------------------------------------

Frame DistinctiveTelemetry() {
  HeartbeatTimestamps hb;
  hb.send_nanos = 1'700'000'000'123'456'789;
  hb.echo_nanos = -3;
  hb.echo_recv_nanos = 1'700'000'000'000'000'000;
  SiteStatsReport stats;
  stats.events_processed = 123456789012345;
  stats.updates_sent = 987654321;
  stats.syncs_sent = 4242;
  stats.rounds_seen = ~uint64_t{0} - 5;  // varint-coded 64-bit extreme
  return MakeHeartbeat(hb, stats);
}

TEST(TelemetryCodecTest, StatsRoundTripEveryField) {
  const Frame telemetry = DistinctiveTelemetry();
  std::vector<uint8_t> buffer;
  AppendFrame(telemetry, &buffer);

  Frame decoded;
  size_t consumed = 0;
  const Status status =
      DecodeFrame(buffer.data(), buffer.size(), &decoded, &consumed);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(consumed, buffer.size());
  EXPECT_EQ(decoded.type, FrameType::kHeartbeat);
  EXPECT_EQ(decoded.hb, telemetry.hb);
  EXPECT_EQ(decoded.stats, telemetry.stats);
}

TEST(TelemetryCodecTest, NegativeEventCountRejected) {
  SiteStatsReport stats;
  stats.events_processed = -1;
  std::vector<uint8_t> buffer;
  AppendFrame(MakeHeartbeat({}, stats), &buffer);
  Frame decoded;
  size_t consumed = 0;
  EXPECT_FALSE(
      DecodeFrame(buffer.data(), buffer.size(), &decoded, &consumed).ok());
}

TEST(TelemetryCodecTest, StatsTruncationAtEveryPrefixFailsCleanly) {
  std::vector<uint8_t> buffer;
  AppendFrame(DistinctiveTelemetry(), &buffer);
  for (size_t size = 0; size < buffer.size(); ++size) {
    Frame decoded;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(buffer.data(), size, &decoded, &consumed).ok())
        << "prefix of " << size << " bytes decoded";
  }
}

TEST(TelemetryCodecTest, TrailingBytesRejected) {
  std::vector<uint8_t> buffer;
  AppendFrame(DistinctiveTelemetry(), &buffer);
  // The payload follows the 4-byte length prefix; pad it and decode the
  // padded payload directly — exact consumption is part of the contract.
  std::vector<uint8_t> payload(buffer.begin() + 4, buffer.end());
  payload.push_back(0);
  Frame decoded;
  EXPECT_FALSE(
      DecodeFramePayload(payload.data(), payload.size(), &decoded).ok());
}

// --- End-to-end: the coordinator's live per-site health table --------------

int64_t CounterValueOrZero(const MetricsSnapshot& snapshot,
                           const std::string& name) {
  const auto* counter = snapshot.FindCounter(name);
  return counter == nullptr ? 0 : static_cast<int64_t>(counter->value);
}

TEST(MetricsClusterTest, LocalTcpHealthTableConvergesOnTrueTotals) {
  // Alarm + this event count + epsilon reliably drive round advances, so
  // the sites' syncs_sent columns must come up non-zero.
  const BayesianNetwork net = Alarm();
  constexpr int kSites = 3;
  constexpr int64_t kEvents = 20000;
  StatusOr<std::unique_ptr<Session>> session =
      SessionBuilder(net)
          .WithBackend(Backend::kLocalTcp)
          .WithStrategy(TrackingStrategy::kUniform)
          .WithEpsilon(0.05)
          .WithSites(kSites)
          .WithSeed(11)
          .WithHeartbeatInterval(10)  // stats ride the heartbeats
          .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->StreamGroundTruth(kEvents).ok());
  // Snapshot hands this thread's staged batches to the sites; without it
  // the tail of the stream sits in the ingest shard and the table can
  // never reach the full total.
  ASSERT_TRUE((*session)->Snapshot().ok());

  // Stats arrive on the heartbeat cadence; the table must converge on the
  // sites' true totals while the run idles, well inside the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  MetricsSnapshot live;
  int64_t events_seen = 0;
  bool all_reported = false;
  while (std::chrono::steady_clock::now() < deadline) {
    live = (*session)->Metrics();
    events_seen = 0;
    all_reported = live.sites.size() == kSites;
    for (const SiteHealth& site : live.sites) {
      events_seen += site.events_processed;
      all_reported = all_reported && site.stats_reports > 0;
    }
    if (all_reported && events_seen == kEvents) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(all_reported);
  EXPECT_EQ(events_seen, kEvents) << "health table never converged";
  uint64_t syncs_total = 0;
  for (const SiteHealth& site : live.sites) {
    EXPECT_TRUE(site.alive) << "site " << site.site;
    EXPECT_GE(site.heartbeat_age_ms, 0.0) << "site " << site.site;
    EXPECT_GT(site.events_processed, 0) << "site " << site.site;
    syncs_total += site.syncs_sent;
  }
  EXPECT_GT(syncs_total, 0u);
  EXPECT_GT(CounterValueOrZero(live, "net.reactor.heartbeats_rx"), 0);

  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  // End-of-run metrics ride the report and its final view.
  EXPECT_FALSE(report->metrics.counters.empty());
  EXPECT_EQ(report->metrics.sites.size(), static_cast<size_t>(kSites));
  EXPECT_EQ(report->model.metrics().sites.size(), static_cast<size_t>(kSites));
  const auto* loop = report->metrics.FindHistogram("net.reactor.loop_ns");
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->stats.p99, 0u);
}

/// A fake external site for the attribution test: handshakes as `hello_id`,
/// then runs `behavior` on the raw socket (same harness as liveness_test).
class FakeSite {
 public:
  FakeSite(int port, int hello_id, std::function<void(TcpSocket*)> behavior) {
    thread_ = std::thread([port, hello_id, behavior] {
      StatusOr<TcpSocket> socket = TcpSocket::Connect("127.0.0.1", port);
      for (int retry = 0; !socket.ok() && retry < 100; ++retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        socket = TcpSocket::Connect("127.0.0.1", port);
      }
      if (!socket.ok()) return;
      std::vector<uint8_t> hello;
      AppendFrame(MakeHello(hello_id), &hello);
      if (!socket->SendAll(hello.data(), hello.size()).ok()) return;
      behavior(&socket.value());
    });
  }
  ~FakeSite() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

std::string TempPortFile(const char* tag) {
  return ::testing::TempDir() + "/dsgm_metrics_" + tag + "_" +
         std::to_string(::getpid()) + ".port";
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

TEST(MetricsClusterTest, TelemetryLandsOnItsConnectionsRow) {
  // Two fake sites send telemetry with distinct stats. The frame names no
  // site: each one's stats must land on the row of the connection whose
  // hello named that site, and on no other row.
  const BayesianNetwork net = StudentNetwork();
  const std::string port_file = TempPortFile("rows");
  std::unique_ptr<FakeSite> sites[2];
  std::atomic<bool> stop{false};
  std::thread connector([&sites, &stop, &port_file] {
    const int port = ReadPortFile(port_file);
    ASSERT_GT(port, 0);
    for (int id : {0, 1}) {
      SiteStatsReport stats;
      stats.events_processed = id == 0 ? 4242 : 31;
      stats.syncs_sent = id == 0 ? 7 : 2;
      sites[id] = std::make_unique<FakeSite>(
          port, id, [&stop, stats](TcpSocket* socket) {
            std::vector<uint8_t> frame;
            AppendFrame(MakeHeartbeat({}, stats), &frame);
            while (!stop.load(std::memory_order_acquire)) {
              if (!socket->SendAll(frame.data(), frame.size()).ok()) return;
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
          });
    }
  });

  StatusOr<std::unique_ptr<Session>> session =
      SessionBuilder(net)
          .WithBackend(Backend::kLocalTcp)
          .WithExternalSites()
          .WithStrategy(TrackingStrategy::kUniform)
          .WithSites(2)
          .WithSeed(5)
          .WithListenPort(0)
          .WithPortFile(port_file)
          .WithLivenessTimeout(5000)
          .Build();
  connector.join();
  ASSERT_TRUE(session.ok()) << session.status();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  MetricsSnapshot live;
  bool settled = false;
  while (std::chrono::steady_clock::now() < deadline && !settled) {
    live = (*session)->Metrics();
    settled = live.sites.size() == 2 && live.sites[0].stats_reports > 0 &&
              live.sites[1].stats_reports > 0;
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(settled) << "telemetry never reached both rows";
  EXPECT_EQ(live.sites[0].events_processed, 4242);
  EXPECT_EQ(live.sites[0].syncs_sent, 7u);
  EXPECT_EQ(live.sites[1].events_processed, 31);
  EXPECT_EQ(live.sites[1].syncs_sent, 2u);
  EXPECT_TRUE(live.sites[0].alive);
  EXPECT_TRUE(live.sites[1].alive);

  stop.store(true, std::memory_order_release);
  session->reset();  // closes the connections, releasing the fake sites
  sites[0].reset();
  sites[1].reset();
}

}  // namespace
}  // namespace dsgm
