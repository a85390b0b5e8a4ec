// Unit tests for the cluster-wide tracing stack (common/tracing.h) and the
// trace drain inside the telemetry frame (kHeartbeat): round-trip and
// truncation safety, drain cursor resume, sequence-gap loss accounting on
// the ClusterTraceBoard, clock-skew estimation under symmetric and
// asymmetric delay, skew-corrected timeline merging, Chrome-trace /
// flight-record JSON shapes, and the alert rules' firing thresholds.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/tracing.h"
#include "net/codec.h"
#include "net/wire.h"

namespace dsgm {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kSec = 1'000'000'000;

// --- ClockSkewEstimator ----------------------------------------------------

TEST(ClockSkewEstimatorTest, SymmetricSampleRecoversTheExactOffset) {
  // Site clock = coordinator clock + 5 ms, 1 ms delay on both legs.
  constexpr int64_t kOffset = 5 * kMs;
  constexpr int64_t kDelay = 1 * kMs;
  ClockSkewEstimator skew;
  const int64_t t1 = 100 * kMs;                    // echo leaves coordinator
  const int64_t t2 = t1 + kDelay + kOffset;        // echo arrives (site clock)
  const int64_t t3 = 120 * kMs + kOffset;          // next beat leaves (site)
  const int64_t t4 = 120 * kMs + kDelay;           // beat arrives (coordinator)
  skew.AddSample(t1, t2, t3, t4);
  EXPECT_EQ(skew.offset_nanos(), kOffset);
  EXPECT_EQ(skew.rtt_nanos(), 2 * kDelay);
  EXPECT_EQ(skew.samples(), 1u);
  EXPECT_EQ(skew.two_way_samples(), 1u);
}

TEST(ClockSkewEstimatorTest, AsymmetricDelayErrorIsHalfTheAsymmetry) {
  // True offset 0, but the echo leg takes 1 ms and the heartbeat leg 3 ms.
  // The NTP estimate's error is exactly half the delay asymmetry.
  constexpr int64_t kForward = 1 * kMs;
  constexpr int64_t kBackward = 3 * kMs;
  ClockSkewEstimator skew;
  // T1 = 0 would read as "no echo yet" (one-way fallback), so anchor the
  // exchange away from the epoch.
  const int64_t t1 = 100 * kMs;
  const int64_t t2 = t1 + kForward;
  const int64_t t3 = 110 * kMs;
  const int64_t t4 = t3 + kBackward;
  skew.AddSample(t1, t2, t3, t4);
  EXPECT_EQ(skew.offset_nanos(), -(kBackward - kForward) / 2);
  EXPECT_LE(std::abs(skew.offset_nanos()), (kBackward - kForward) / 2);
}

TEST(ClockSkewEstimatorTest, OneWaySampleSeedsTheFilterWithDelayBias) {
  // Before the first echo round-trip the site sends T1 = T2 = 0; the
  // estimator falls back to T3 - T4 = offset - delay.
  constexpr int64_t kOffset = 2 * kMs;
  constexpr int64_t kDelay = 1 * kMs;
  ClockSkewEstimator skew;
  const int64_t t3 = 50 * kMs + kOffset;
  const int64_t t4 = 50 * kMs + kDelay;
  skew.AddSample(0, 0, t3, t4);
  EXPECT_EQ(skew.offset_nanos(), kOffset - kDelay);
  EXPECT_EQ(skew.samples(), 1u);
  EXPECT_EQ(skew.two_way_samples(), 0u);
  EXPECT_EQ(skew.rtt_nanos(), 0);
}

TEST(ClockSkewEstimatorTest, EwmaTracksAStepChangeInOffset) {
  ClockSkewEstimator skew;
  // Seed at offset 0, then 20 symmetric samples at offset +10 ms. With
  // alpha = 1/8 the residue of the seed is (7/8)^20 ~ 7%.
  skew.AddSample(100 * kMs, 101 * kMs, 110 * kMs, 111 * kMs);
  ASSERT_EQ(skew.offset_nanos(), 0);
  constexpr int64_t kOffset = 10 * kMs;
  for (int i = 1; i <= 20; ++i) {
    const int64_t t1 = i * 100 * kMs;
    skew.AddSample(t1, t1 + kMs + kOffset, t1 + 20 * kMs + kOffset,
                   t1 + 20 * kMs + kMs);
  }
  EXPECT_GT(skew.offset_nanos(), 9 * kMs);
  EXPECT_LE(skew.offset_nanos(), kOffset);
}

// --- Trace drain in the telemetry frame ------------------------------------

TraceEvent MakeEvent(int64_t t_nanos, TraceEventType type, int32_t site,
                     int64_t arg) {
  TraceEvent event;
  event.t_nanos = t_nanos;
  event.type = type;
  event.site = site;
  event.arg = arg;
  return event;
}

TEST(TelemetryCodecTest, TraceDrainRoundTripsExtremes) {
  TraceChunk chunk;
  chunk.first_seq = (uint64_t{1} << 40) + 17;  // deep into a long run
  // Out-of-order timestamps (negative delta), a negative absolute time, the
  // wildcard site, and the full arg range all must survive the delta coding.
  chunk.events.push_back(
      MakeEvent(1'000'000'000, TraceEventType::kHeartbeat, 0, 42));
  chunk.events.push_back(
      MakeEvent(999'000'000, TraceEventType::kSyncMessage, -1, -7));
  chunk.events.push_back(
      MakeEvent(-5, TraceEventType::kAlert, 2, INT64_MIN + 1));
  chunk.events.push_back(
      MakeEvent(2'000'000'000, TraceEventType::kRoundAdvance, 1, INT64_MAX));

  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat({}, {}, chunk), &bytes);
  Frame decoded;
  size_t consumed = 0;
  const Status status = DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(decoded.type, FrameType::kHeartbeat);
  EXPECT_TRUE(decoded.trace == chunk);
}

TEST(TelemetryCodecTest, EmptyTraceDrainRoundTrips) {
  TraceChunk chunk;
  chunk.first_seq = 9;
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat({}, {}, chunk), &bytes);
  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed).ok());
  EXPECT_TRUE(decoded.trace == chunk);
}

TEST(TelemetryCodecTest, TraceDrainTruncationFailsCleanly) {
  TraceChunk chunk;
  chunk.first_seq = 100;
  for (int i = 0; i < 8; ++i) {
    chunk.events.push_back(
        MakeEvent(i * 1000, TraceEventType::kStatsReport, 1, i));
  }
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat({}, {}, chunk), &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    Frame decoded;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(bytes.data(), len, &decoded, &consumed).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(TelemetryCodecTest, BadTraceEventTypeTagIsRejected) {
  TraceChunk chunk;
  chunk.events.push_back(MakeEvent(0, static_cast<TraceEventType>(99), 1, 0));
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat({}, {}, chunk), &bytes);
  Frame decoded;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed).ok());
}

TEST(TelemetryCodecTest, TraceEventSiteBeyondInt32IsRejected) {
  // An event's site must fit int32. The encoder writes int32 sites only, so
  // the out-of-range id is spliced in by hand: the last event's site field
  // is its second-to-last varint, here one byte (site 1 zigzags to 2).
  TraceChunk chunk;
  chunk.events.push_back(MakeEvent(0, TraceEventType::kHeartbeat, 1, 0));
  std::vector<uint8_t> bytes;
  AppendFrame(MakeHeartbeat({}, {}, chunk), &bytes);
  const size_t site_at = bytes.size() - 2;
  ASSERT_EQ(bytes[site_at], 2);
  std::vector<uint8_t> huge;
  AppendVarint(ZigzagEncode(int64_t{1} << 40), &huge);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(site_at));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(site_at),
               huge.begin(), huge.end());
  const uint32_t payload = static_cast<uint32_t>(bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(payload >> (8 * i));
  }
  Frame decoded;
  size_t consumed = 0;
  const Status status =
      DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("trace event site"), std::string::npos)
      << status;
}

// --- TraceDrainCursor ------------------------------------------------------

TEST(TraceDrainTest, CursorResumesWhereTheLastDrainStopped) {
  SetMetricsEnabled(true);
  TraceDrainCursor cursor;
  std::vector<TraceEvent> discard;
  uint64_t first_seq = 0;
  DrainTraceEvents(&cursor, &discard, &first_seq);  // swallow history
  const uint64_t base = cursor.next_seq;

  Trace(TraceEventType::kHeartbeat, 7, 1);
  Trace(TraceEventType::kHeartbeat, 7, 2);
  Trace(TraceEventType::kHeartbeat, 7, 3);
  std::vector<TraceEvent> batch1;
  ASSERT_EQ(DrainTraceEvents(&cursor, &batch1, &first_seq), 3u);
  EXPECT_EQ(first_seq, base);
  EXPECT_EQ(batch1[0].arg, 1);
  EXPECT_EQ(batch1[2].arg, 3);

  Trace(TraceEventType::kSyncMessage, 7, 4);
  Trace(TraceEventType::kSyncMessage, 7, 5);
  std::vector<TraceEvent> batch2;
  ASSERT_EQ(DrainTraceEvents(&cursor, &batch2, &first_seq), 2u);
  // The global sequence is gapless across drains — that is what lets the
  // coordinator detect loss when a chunk goes missing.
  EXPECT_EQ(first_seq, base + 3);
  EXPECT_EQ(cursor.next_seq, base + 5);

  std::vector<TraceEvent> batch3;
  EXPECT_EQ(DrainTraceEvents(&cursor, &batch3, &first_seq), 0u);
}

// --- ClusterTraceBoard -----------------------------------------------------

TEST(ClusterTraceBoardTest, SequenceGapsCountAsLossOverlapsDeduplicate) {
  ClusterTraceBoard board(2);
  std::vector<TraceEvent> two = {
      MakeEvent(10, TraceEventType::kHeartbeat, 0, 0),
      MakeEvent(20, TraceEventType::kHeartbeat, 0, 1)};
  ASSERT_TRUE(board.Ingest(0, 0, two));
  EXPECT_EQ(board.EventsIngested(0), 2u);
  EXPECT_EQ(board.EventsLost(0), 0u);

  // The next chunk starts at seq 5: seqs 2..4 were overwritten on the site
  // (or their chunk was dropped with the connection) — that is loss, not an
  // error.
  std::vector<TraceEvent> late = {MakeEvent(50, TraceEventType::kHeartbeat, 0, 5)};
  ASSERT_TRUE(board.Ingest(0, 5, late));
  EXPECT_EQ(board.EventsIngested(0), 3u);
  EXPECT_EQ(board.EventsLost(0), 3u);

  // A reconnect replay overlapping already-folded sequence positions is
  // deduplicated, not double-counted.
  std::vector<TraceEvent> replay = {
      MakeEvent(40, TraceEventType::kHeartbeat, 0, 4),
      MakeEvent(50, TraceEventType::kHeartbeat, 0, 5)};
  ASSERT_TRUE(board.Ingest(0, 4, replay));
  EXPECT_EQ(board.EventsIngested(0), 3u);
  EXPECT_EQ(board.EventsLost(0), 3u);
  EXPECT_EQ(board.ChunksIngested(0), 3u);

  EXPECT_FALSE(board.Ingest(2, 0, two));   // out of range
  EXPECT_FALSE(board.Ingest(-1, 0, two));  // forged / nonsense id
  EXPECT_EQ(board.EventsIngested(1), 0u);  // the other site is untouched
}

TEST(ClusterTraceBoardTest, EvictionKeepsTheNewestEvents) {
  ClusterTraceBoard board(1);
  const size_t total = ClusterTraceBoard::kMaxEventsPerSite + 100;
  std::vector<TraceEvent> events;
  events.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    events.push_back(MakeEvent(static_cast<int64_t>(i), TraceEventType::kHeartbeat,
                               0, static_cast<int64_t>(i)));
  }
  ASSERT_TRUE(board.Ingest(0, 0, events));
  EXPECT_EQ(board.EventsIngested(0), total);  // evicted events still counted

  size_t kept = 0;
  int64_t oldest_arg = INT64_MAX;
  for (const ClusterTraceEvent& e : board.MergedClusterTimeline()) {
    if (e.origin != 0) continue;  // skip this process's own rings
    ++kept;
    oldest_arg = std::min(oldest_arg, e.event.arg);
  }
  EXPECT_EQ(kept, ClusterTraceBoard::kMaxEventsPerSite);
  EXPECT_EQ(oldest_arg, 100);  // the 100 oldest were evicted
}

TEST(ClusterTraceBoardTest, MergedTimelineCorrectsSiteClocksOntoCoordinator) {
  ClusterTraceBoard board(1);
  // One symmetric sample fixes the offset exactly at +5 ms.
  constexpr int64_t kOffset = 5 * kMs;
  board.AddSkewSample(0, 100 * kMs, 100 * kMs + kMs + kOffset,
                      120 * kMs + kOffset, 120 * kMs + kMs);
  ASSERT_EQ(board.OffsetsNanos()[0], kOffset);

  std::vector<TraceEvent> events = {
      MakeEvent(kSec + kOffset, TraceEventType::kSyncMessage, 0, 1)};
  ASSERT_TRUE(board.Ingest(0, 0, events));
  bool found = false;
  for (const ClusterTraceEvent& e : board.MergedClusterTimeline()) {
    if (e.origin != 0) continue;
    found = true;
    EXPECT_EQ(e.event.t_nanos, kSec);  // site clock -> coordinator clock
  }
  EXPECT_TRUE(found);
}

// --- JSON renderers --------------------------------------------------------

TEST(TimelineJsonTest, ChromeJsonCarriesProcessesEventsAndOffsets) {
  std::vector<ClusterTraceEvent> timeline;
  timeline.push_back(
      {MakeEvent(2'000'000, TraceEventType::kHeartbeat, -1, 0), -1});
  timeline.push_back(
      {MakeEvent(3'000'000, TraceEventType::kSyncMessage, 0, 4), 0});
  const std::string json =
      TimelineToChromeJson(timeline, std::vector<int64_t>{5 * kMs});

  // Process metadata for both origins, pid = origin + 1.
  EXPECT_NE(json.find("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                      "\"args\":{\"name\":\"coordinator\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"site 0\"}"), std::string::npos);
  // Instant events with microsecond timestamps and site/arg args.
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"g\",\"name\":\"sync_message\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":3000.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"site\":0,\"arg\":4}"), std::string::npos);
  // The applied correction is embedded for the reader.
  EXPECT_NE(json.find("\"clock_offsets_nanos\":{\"0\":5000000}"),
            std::string::npos);
}

TEST(TimelineJsonTest, FlightRecordEscapesTheReasonAndListsTheTimeline) {
  FlightRecord record;
  record.failure_reason = "site 2 \"died\"\nmid-run";
  record.offsets_nanos = {11, -22};
  record.trace_events_lost = 7;
  record.timeline.push_back(
      {MakeEvent(4'000'000, TraceEventType::kProtocolViolation, 2, 8), 2});
  const std::string json = FlightRecordToJson(record);

  EXPECT_NE(json.find("\"failure_reason\":\"site 2 \\\"died\\\"\\u000amid-run\""),
            std::string::npos);
  EXPECT_NE(json.find("\"clock_offsets_nanos\":[11,-22]"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_lost\":7"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"protocol_violation\",\"site\":2,\"arg\":8,"
                      "\"origin\":2"),
            std::string::npos);
  // The metrics snapshot is embedded as a JSON object, not a string.
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
}

// --- AlertEngine -----------------------------------------------------------

SiteHealth MakeHealth(int site, bool alive, double age_ms, int64_t events,
                      uint64_t syncs) {
  SiteHealth health;
  health.site = site;
  health.alive = alive;
  health.heartbeat_age_ms = age_ms;
  health.events_processed = events;
  health.syncs_sent = syncs;
  return health;
}

TEST(AlertEngineTest, HeartbeatStaleIsEdgeTriggeredAndRearms) {
  AlertConfig config;
  config.heartbeat_interval_ms = 100.0;
  config.stale_multiplier = 3.0;  // threshold: 300 ms
  AlertEngine engine(config);

  int64_t now = kSec;
  std::vector<Alert> fired =
      engine.Evaluate({MakeHealth(0, true, 500.0, 0, 0)}, now);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, AlertRule::kHeartbeatStale);
  EXPECT_EQ(fired[0].site, 0);
  EXPECT_DOUBLE_EQ(fired[0].value, 500.0);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 300.0);

  // Still stale: latched, no re-fire.
  now += kSec;
  EXPECT_TRUE(engine.Evaluate({MakeHealth(0, true, 600.0, 0, 0)}, now).empty());
  // Recovered: the rule re-arms...
  now += kSec;
  EXPECT_TRUE(engine.Evaluate({MakeHealth(0, true, 50.0, 0, 0)}, now).empty());
  // ...and fires again on the next crossing.
  now += kSec;
  fired = engine.Evaluate({MakeHealth(0, true, 400.0, 0, 0)}, now);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(engine.alerts_fired(), 2u);

  // A dead site is the liveness machinery's problem, not a staleness alert.
  now += kSec;
  EXPECT_TRUE(
      engine.Evaluate({MakeHealth(0, false, 9000.0, 0, 0)}, now).empty());
}

TEST(AlertEngineTest, SyncRateCollapseFiresAgainstTheTrailingMean) {
  AlertConfig config;
  config.heartbeat_interval_ms = 100.0;
  config.warmup_ticks = 2;
  AlertEngine engine(config);

  int64_t now = kSec;
  uint64_t syncs = 0;
  // Warm up at a steady 100 syncs/sec.
  for (int tick = 0; tick < 4; ++tick) {
    syncs += 100;
    EXPECT_TRUE(
        engine.Evaluate({MakeHealth(0, true, 10.0, 0, syncs)}, now).empty())
        << "tick " << tick;
    now += kSec;
  }
  // The site stops answering: rate 0 < 0.2 x trailing mean.
  std::vector<Alert> fired =
      engine.Evaluate({MakeHealth(0, true, 10.0, 0, syncs)}, now);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, AlertRule::kSyncRateCollapse);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.0);
  EXPECT_GT(fired[0].threshold, 0.0);
  // Latched while the collapse persists.
  now += kSec;
  EXPECT_TRUE(
      engine.Evaluate({MakeHealth(0, true, 10.0, 0, syncs)}, now).empty());
}

TEST(AlertEngineTest, EventRateOutlierComparesAgainstTheClusterMedian) {
  AlertConfig config;
  config.heartbeat_interval_ms = 100.0;
  config.warmup_ticks = 2;
  AlertEngine engine(config);

  int64_t now = kSec;
  int64_t events[3] = {0, 0, 0};
  auto snapshot = [&events] {
    return std::vector<SiteHealth>{
        MakeHealth(0, true, 10.0, events[0], 0),
        MakeHealth(1, true, 10.0, events[1], 0),
        MakeHealth(2, true, 10.0, events[2], 0)};
  };
  for (int tick = 0; tick < 4; ++tick) {
    for (int64_t& e : events) e += 1000;
    EXPECT_TRUE(engine.Evaluate(snapshot(), now).empty()) << "tick " << tick;
    now += kSec;
  }
  // Site 2 straggles at 1% of the cluster median.
  events[0] += 1000;
  events[1] += 1000;
  events[2] += 10;
  std::vector<Alert> fired = engine.Evaluate(snapshot(), now);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, AlertRule::kEventRateOutlier);
  EXPECT_EQ(fired[0].site, 2);
  EXPECT_DOUBLE_EQ(fired[0].value, 10.0);
  EXPECT_DOUBLE_EQ(fired[0].threshold, 0.2 * 1000.0);
}

TEST(AlertEngineTest, IdleClustersAndWarmupNeverFireRateRules) {
  AlertConfig config;
  config.heartbeat_interval_ms = 100.0;
  config.warmup_ticks = 3;
  AlertEngine engine(config);

  // A cluster that never syncs and never processes events is idle, not
  // collapsed: every reference rate sits below min_rate_per_sec.
  int64_t now = kSec;
  for (int tick = 0; tick < 8; ++tick) {
    EXPECT_TRUE(
        engine.Evaluate({MakeHealth(0, true, 10.0, 0, 0),
                         MakeHealth(1, true, 10.0, 0, 0)},
                        now)
            .empty())
        << "tick " << tick;
    now += kSec;
  }
  EXPECT_EQ(engine.alerts_fired(), 0u);
}

TEST(AlertEngineTest, FiringRecordsCountersAndAKAlertTraceEvent) {
  SetMetricsEnabled(true);
  const uint64_t total_before =
      MetricsRegistry::Global().GetCounter("obs.alerts.total")->Value();
  const uint64_t stale_before = MetricsRegistry::Global()
                                    .GetCounter("obs.alerts.heartbeat_stale")
                                    ->Value();
  TraceDrainCursor cursor;
  std::vector<TraceEvent> discard;
  uint64_t first_seq = 0;
  DrainTraceEvents(&cursor, &discard, &first_seq);

  AlertConfig config;
  config.heartbeat_interval_ms = 100.0;
  AlertEngine engine(config);
  ASSERT_EQ(engine.Evaluate({MakeHealth(3, true, 900.0, 0, 0)}, kSec).size(),
            1u);

  EXPECT_EQ(MetricsRegistry::Global().GetCounter("obs.alerts.total")->Value(),
            total_before + 1);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("obs.alerts.heartbeat_stale")
                ->Value(),
            stale_before + 1);
  std::vector<TraceEvent> drained;
  DrainTraceEvents(&cursor, &drained, &first_seq);
  bool saw_alert = false;
  for (const TraceEvent& event : drained) {
    if (event.type != TraceEventType::kAlert) continue;
    saw_alert = true;
    EXPECT_EQ(event.site, 3);
    EXPECT_EQ(event.arg, static_cast<int64_t>(AlertRule::kHeartbeatStale));
  }
  EXPECT_TRUE(saw_alert);
}

}  // namespace
}  // namespace dsgm
