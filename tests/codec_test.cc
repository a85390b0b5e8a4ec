// Tests for net/codec.h: exact round-trips over randomized frames, and
// malformed-input robustness — every corrupt buffer must come back as a
// Status error, never a crash or an out-of-bounds read (the ASan/UBSan CI
// job runs this suite to enforce the latter).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "monitor/comm_stats.h"
#include "net/codec.h"

namespace dsgm {
namespace {

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> buffer;
  AppendFrame(frame, &buffer);
  return buffer;
}

Frame DecodeOrDie(const std::vector<uint8_t>& buffer) {
  Frame frame;
  size_t consumed = 0;
  const Status status = DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(consumed, buffer.size());
  return frame;
}

TEST(CodecTest, VarintBoundaries) {
  for (uint64_t value : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                         uint64_t{16383}, uint64_t{16384},
                         std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> buffer;
    AppendVarint(value, &buffer);
    EXPECT_LE(buffer.size(), 10u);
  }
}

TEST(CodecTest, ZigzagRoundTrip) {
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                        std::numeric_limits<int64_t>::min(),
                        std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(value)), value);
  }
}

TEST(CodecTest, UpdateBundleRoundTrip) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 13;
  bundle.round = 7;
  bundle.reports = {{0, 1}, {5, 1000}, {4, 42}, {1000000007, 0xffffffffu}};
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(bundle)));
  ASSERT_EQ(decoded.type, FrameType::kUpdateBundle);
  EXPECT_TRUE(decoded.bundle == bundle);
}

TEST(CodecTest, EmptyBundleAndDefaults) {
  UpdateBundle bundle;  // kReports, site -1, round -1, no reports.
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(bundle)));
  EXPECT_TRUE(decoded.bundle == bundle);
}

TEST(CodecTest, RoundAdvanceRoundTripPreservesFloatBits) {
  RoundAdvance advance;
  advance.counter = 123456789012345;
  advance.round = 31;
  advance.probability = 0.0437f;
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(advance)));
  ASSERT_EQ(decoded.type, FrameType::kRoundAdvance);
  EXPECT_TRUE(decoded.advance == advance);
  uint32_t want_bits = 0;
  uint32_t got_bits = 0;
  std::memcpy(&want_bits, &advance.probability, 4);
  std::memcpy(&got_bits, &decoded.advance.probability, 4);
  EXPECT_EQ(got_bits, want_bits);
}

TEST(CodecTest, EventBatchRoundTrip) {
  EventBatch batch;
  batch.num_events = 3;
  batch.values = {0, 1, 2, 5, 0, 3, 1, 1, 0};
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(batch)));
  ASSERT_EQ(decoded.type, FrameType::kEventBatch);
  EXPECT_TRUE(decoded.batch == batch);
}

TEST(CodecTest, ControlFramesRoundTrip) {
  Frame close = DecodeOrDie(Encode(MakeChannelClose(FrameType::kRoundAdvance)));
  ASSERT_EQ(close.type, FrameType::kChannelClose);
  EXPECT_EQ(close.channel, FrameType::kRoundAdvance);

  Frame hello = DecodeOrDie(Encode(MakeHello(17)));
  ASSERT_EQ(hello.type, FrameType::kHello);
  EXPECT_EQ(hello.site, 17);
  EXPECT_EQ(hello.protocol_version, kProtocolVersion);
}

TEST(CodecTest, HelloRoundTripsForeignProtocolVersions) {
  // The codec must transport ANY version value faithfully — rejecting a
  // mismatch is the transport's job, and it can only produce a clear error
  // if the decoded frame still says what the peer claimed.
  for (uint8_t version : {uint8_t{0}, uint8_t{2}, uint8_t{255}}) {
    Frame hello = MakeHello(3);
    hello.protocol_version = version;
    const Frame decoded = DecodeOrDie(Encode(hello));
    ASSERT_EQ(decoded.type, FrameType::kHello);
    EXPECT_EQ(decoded.protocol_version, version);
    EXPECT_EQ(decoded.site, 3);
  }
  // A v6 hello, byte for byte: version 6, zigzag site 2, then the
  // capability varint v7 dropped (kCapCompression, or none). The codec
  // skips what follows another version's site id, so the transport can
  // still report the version mismatch.
  for (const uint8_t caps : {uint8_t{1}, uint8_t{0}}) {
    const std::vector<uint8_t> v6_hello = {
        4, 0, 0, 0, static_cast<uint8_t>(FrameType::kHello), 6, 4, caps};
    const Frame decoded = DecodeOrDie(v6_hello);
    ASSERT_EQ(decoded.type, FrameType::kHello);
    EXPECT_EQ(decoded.protocol_version, 6);
    EXPECT_EQ(decoded.site, 2);
  }
}

TEST(CodecTest, HeartbeatRoundTrip) {
  // The clock samples round-trip at their extremes; an echo sets only its
  // send time, so its stats and trace drain decode empty.
  for (int64_t nanos : {int64_t{0}, int64_t{1}, int64_t{-1},
                        std::numeric_limits<int64_t>::max(),
                        std::numeric_limits<int64_t>::min()}) {
    HeartbeatTimestamps hb;
    hb.send_nanos = nanos;
    hb.echo_nanos = nanos / -2;
    hb.echo_recv_nanos = nanos / 3;
    const Frame decoded = DecodeOrDie(Encode(MakeHeartbeat(hb)));
    EXPECT_EQ(decoded.type, FrameType::kHeartbeat);
    EXPECT_TRUE(decoded.hb == hb);
    EXPECT_TRUE(decoded.stats == SiteStatsReport{});
    EXPECT_TRUE(decoded.trace == TraceChunk{});
  }
  // An echo is eleven bytes of payload: the tag, one two-byte clock sample
  // and eight one-byte zero fields.
  HeartbeatTimestamps echo;
  echo.send_nanos = 100;
  EXPECT_EQ(Encode(MakeHeartbeat(echo)).size(), 4u + 1u + 2u + 8u);
}

TEST(CodecTest, TruncatedHeartbeatFails) {
  // A bare kHeartbeat tag with no clock samples must fail, not read past
  // the end.
  const std::vector<uint8_t> payload = {
      static_cast<uint8_t>(FrameType::kHeartbeat)};
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

TEST(CodecTest, TruncatedHelloMissingSiteFails) {
  // A hello that ends right after the version byte (an old-format peer
  // would not even have the version) must fail cleanly, not misparse.
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kHello),
                                  kProtocolVersion};
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

TEST(CodecTest, RandomizedBundleRoundTripProperty) {
  Rng rng(20260727);
  for (int iteration = 0; iteration < 500; ++iteration) {
    UpdateBundle bundle;
    bundle.kind = static_cast<UpdateBundle::Kind>(rng.NextBounded(4));
    bundle.site = static_cast<int32_t>(rng.NextBounded(1000)) - 1;
    bundle.round = static_cast<int32_t>(rng.NextBounded(64)) - 1;
    const size_t reports = rng.NextBounded(64);
    int64_t counter = 0;
    for (size_t r = 0; r < reports; ++r) {
      // Deliberately non-monotone ids to exercise negative deltas.
      counter += static_cast<int64_t>(rng.NextBounded(1 << 20)) - (1 << 18);
      bundle.reports.push_back(
          CounterReport{counter, static_cast<uint32_t>(rng.Next())});
    }
    const Frame decoded = DecodeOrDie(Encode(MakeFrame(bundle)));
    ASSERT_TRUE(decoded.bundle == bundle) << "iteration " << iteration;
  }
}

TEST(CodecTest, RandomizedEventBatchRoundTripProperty) {
  Rng rng(424242);
  for (int iteration = 0; iteration < 200; ++iteration) {
    EventBatch batch;
    batch.num_events = static_cast<int32_t>(rng.NextBounded(100));
    const size_t values =
        static_cast<size_t>(batch.num_events) * (1 + rng.NextBounded(8));
    for (size_t v = 0; v < values; ++v) {
      batch.values.push_back(static_cast<int32_t>(rng.NextBounded(128)));
    }
    const Frame decoded = DecodeOrDie(Encode(MakeFrame(batch)));
    ASSERT_TRUE(decoded.batch == batch) << "iteration " << iteration;
  }
}

// --- Packed event batches (column min | width, then value - min bits). --

TEST(CodecTest, PackedEventBatchGoldenBytes) {
  // Three events of three variables. Column 0 spans 0..2 (2 bits), column 1
  // is constant (0 bits), column 2 spans -2..7 (4 bits): 6 bits per row,
  // 18 bits in all, padded to 3 bytes. Any layout drift changes these bytes.
  EventBatch batch;
  batch.num_events = 3;
  batch.values = {0, 1, -2, 2, 1, 5, 1, 1, 7};
  const std::vector<uint8_t> golden = {
      13, 0, 0, 0,                            // payload length
      static_cast<uint8_t>(FrameType::kEventBatch),
      6,                                      // zigzag num_events = 3
      9,                                      // value count
      3,                                      // stride (values per event)
      0, 2,                                   // column 0: min 0, width 2
      2, 0,                                   // column 1: min 1, width 0
      3, 4,                                   // column 2: min -2, width 4
      0x80, 0x57, 0x02};                      // rows, LSB-first
  EXPECT_EQ(Encode(MakeFrame(batch)), golden);
  EXPECT_TRUE(DecodeOrDie(golden).batch == batch);
}

TEST(CodecTest, PackedEventBatchShapesRoundTripProperty) {
  // Seeded shapes the packer must stay total over: no events, negative
  // values, constant (width 0) columns, and INT32_MIN with INT32_MAX in one
  // column (width 32).
  Rng rng(20261017);
  for (int iteration = 0; iteration < 400; ++iteration) {
    EventBatch batch;
    const size_t stride = 1 + rng.NextBounded(40);
    const size_t rows = rng.NextBounded(64);
    batch.num_events = static_cast<int32_t>(rows);
    std::vector<int> shape(stride);
    for (int& kind : shape) kind = static_cast<int>(rng.NextBounded(4));
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < stride; ++c) {
        int32_t value = 0;
        switch (shape[c]) {
          case 0:  // Constant column.
            value = static_cast<int32_t>(c) - 7;
            break;
          case 1:  // Few states, as in a network's variables.
            value = static_cast<int32_t>(rng.NextBounded(4));
            break;
          case 2:  // Negative values.
            value = -static_cast<int32_t>(rng.NextBounded(1000)) - 1;
            break;
          default:  // Both int32 extremes, so the column is 32 bits wide.
            value = r % 2 == 0 ? std::numeric_limits<int32_t>::min()
                               : std::numeric_limits<int32_t>::max();
            if (rng.NextBounded(3) == 0) {
              value = static_cast<int32_t>(rng.Next());
            }
            break;
        }
        batch.values.push_back(value);
      }
    }
    const Frame decoded = DecodeOrDie(Encode(MakeFrame(batch)));
    ASSERT_TRUE(decoded.batch == batch) << "iteration " << iteration;
  }
}

TEST(CodecTest, PackedEventBatchIsCompactForSmallStates) {
  // 256 events of 37 variables with 2-4 states: the packed body must come
  // in well under the one byte per value a varint body spends.
  Rng rng(37);
  EventBatch batch;
  batch.num_events = 256;
  for (int e = 0; e < 256; ++e) {
    for (int v = 0; v < 37; ++v) {
      batch.values.push_back(static_cast<int32_t>(rng.NextBounded(2 + v % 3)));
    }
  }
  const std::vector<uint8_t> encoded = Encode(MakeFrame(batch));
  EXPECT_LT(encoded.size(), batch.values.size() / 3);
  EXPECT_TRUE(DecodeOrDie(encoded).batch == batch);
}

/// A hand-built kEventBatch payload: header fields, column headers, and
/// the raw packed bytes, each a remote claim the decoder must check.
/// num_events defaults to the row count, count / stride.
std::vector<uint8_t> PackedBatchPayload(
    uint64_t count, uint64_t stride,
    const std::vector<std::pair<int64_t, uint8_t>>& columns,
    const std::vector<uint8_t>& bits, int64_t num_events = -1) {
  if (num_events < 0) {
    num_events = stride == 0 ? 1 : static_cast<int64_t>(count / stride);
  }
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kEventBatch)};
  AppendVarint(ZigzagEncode(num_events), &payload);
  AppendVarint(count, &payload);
  AppendVarint(stride, &payload);
  for (const auto& [min, width] : columns) {
    AppendVarint(ZigzagEncode(min), &payload);
    payload.push_back(width);
  }
  payload.insert(payload.end(), bits.begin(), bits.end());
  return payload;
}

bool DecodesOk(const std::vector<uint8_t>& payload) {
  Frame frame;
  return DecodeFramePayload(payload.data(), payload.size(), &frame).ok();
}

TEST(CodecTest, PackedEventBatchWidthOver32Rejected) {
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(1, 1, {{0, 33}}, {0, 0, 0, 0, 0})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(1, 1, {{0, 255}}, {})));
}

TEST(CodecTest, PackedEventBatchBadStrideRejected) {
  // Zero, larger than the count, not dividing the count.
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(2, 0, {}, {})));
  EXPECT_FALSE(
      DecodesOk(PackedBatchPayload(2, 3, {{0, 0}, {0, 0}, {0, 0}}, {})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(3, 2, {{0, 0}, {0, 0}}, {})));
  // A stride whose column headers cannot fit in what remains: 2^20
  // columns claimed, one header present.
  EXPECT_FALSE(
      DecodesOk(PackedBatchPayload(uint64_t{1} << 20, uint64_t{1} << 20,
                                   {{0, 0}}, {})));
}

TEST(CodecTest, PackedEventBatchRowsMustMatchNumEvents) {
  // A site walks a batch num_events rows at a time, so the framing must
  // say exactly that many rows: four values of stride 2 are two events.
  const std::vector<std::pair<int64_t, uint8_t>> columns = {{1, 0}, {2, 0}};
  EXPECT_TRUE(DecodesOk(PackedBatchPayload(4, 2, columns, {}, 2)));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(4, 2, columns, {}, 1)));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(4, 2, columns, {}, 3)));
  // Events without values: the site would read rows that are not there.
  std::vector<uint8_t> empty = {static_cast<uint8_t>(FrameType::kEventBatch)};
  AppendVarint(ZigzagEncode(5), &empty);  // num_events
  AppendVarint(0, &empty);                // count
  EXPECT_FALSE(DecodesOk(empty));
  empty = {static_cast<uint8_t>(FrameType::kEventBatch), 0, 0};
  EXPECT_TRUE(DecodesOk(empty));
}

TEST(CodecTest, PackedEventBatchBodySizeMustBeExact) {
  // Two 4-bit values need exactly one byte: min 5 plus nibbles 1 and 2.
  const std::vector<uint8_t> exact = PackedBatchPayload(2, 1, {{5, 4}}, {0x21});
  Frame frame;
  ASSERT_TRUE(DecodeFramePayload(exact.data(), exact.size(), &frame).ok());
  EXPECT_EQ(frame.batch.values, (std::vector<int32_t>{6, 7}));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(2, 1, {{5, 4}}, {})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(2, 1, {{5, 4}}, {0x21, 0x00})));
  // Zero-width columns carry no body at all.
  EXPECT_TRUE(DecodesOk(PackedBatchPayload(4, 2, {{1, 0}, {2, 0}}, {})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(4, 2, {{1, 0}, {2, 0}}, {0x00})));
}

TEST(CodecTest, PackedEventBatchForgedCountOverZeroWidthColumnsRejected) {
  // Zero-width columns make any count cost zero body bytes, so only the
  // count cap stops a tiny frame from sizing a huge vector.
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(
      static_cast<uint64_t>(kMaxFramePayload) + 1, 1, {{0, 0}}, {})));
  EXPECT_FALSE(
      DecodesOk(PackedBatchPayload(uint64_t{1} << 40, 1, {{0, 0}}, {})));
}

TEST(CodecTest, PackedEventBatchValuesMustFitInt32) {
  // min + (value bits) past INT32_MAX, and a min outside int32 itself.
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(
      1, 1, {{std::numeric_limits<int32_t>::max(), 1}}, {0x01})));
  EXPECT_TRUE(DecodesOk(PackedBatchPayload(
      1, 1, {{std::numeric_limits<int32_t>::max(), 1}}, {0x00})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(
      1, 1, {{int64_t{std::numeric_limits<int32_t>::max()} + 1, 0}}, {})));
  EXPECT_FALSE(DecodesOk(PackedBatchPayload(
      1, 1, {{int64_t{std::numeric_limits<int32_t>::min()} - 1, 0}}, {})));
}

TEST(CodecTest, DeltaPackingIsCompactForDenseCounters) {
  // A sync over a dense counter range (the common case) should cost a
  // couple of bytes per report, not the 12 of the naive fixed layout.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 1;
  bundle.round = 3;
  for (int64_t c = 0; c < 1000; ++c) {
    bundle.reports.push_back(CounterReport{c, static_cast<uint32_t>(c % 100)});
  }
  const std::vector<uint8_t> encoded = Encode(MakeFrame(bundle));
  EXPECT_LT(encoded.size(), bundle.reports.size() * 3 + 16);
}

// --- Malformed inputs: errors, never crashes. --------------------------

TEST(CodecTest, TruncationAtEveryPrefixFailsCleanly) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 3;
  bundle.round = 2;
  bundle.reports = {{100, 5}, {200, 6}, {300, 7}};
  const std::vector<uint8_t> encoded = Encode(MakeFrame(bundle));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Frame frame;
    size_t consumed = 0;
    const Status status = DecodeFrame(encoded.data(), cut, &frame, &consumed);
    EXPECT_FALSE(status.ok()) << "prefix of length " << cut << " decoded";
  }
}

TEST(CodecTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  std::vector<uint8_t> buffer = {0xff, 0xff, 0xff, 0xff, 0x01};
  Frame frame;
  size_t consumed = 0;
  const Status status = DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, BadFrameTypeTagFails) {
  // 0 and tags above kHeartbeat are invalid, v7's stats report (7) and
  // trace chunk (8) included.
  for (uint8_t tag : {uint8_t{0}, uint8_t{7}, uint8_t{8}, uint8_t{9},
                      uint8_t{10}, uint8_t{99}, uint8_t{255}}) {
    const std::vector<uint8_t> payload = {tag};
    Frame frame;
    EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
  }
  // Tag 9 was v6's compression envelope (varint raw size | LZ block); a
  // whole one is a bad tag too, not a frame: four literal bytes "abcd".
  const std::vector<uint8_t> envelope = {9, 4, 0x40, 'a', 'b', 'c', 'd'};
  Frame frame;
  const Status status =
      DecodeFramePayload(envelope.data(), envelope.size(), &frame);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad frame type tag"), std::string::npos)
      << status;
}

TEST(CodecTest, BadBundleKindTagFails) {
  std::vector<uint8_t> encoded = Encode(MakeFrame(UpdateBundle{}));
  encoded[5] = 99;  // Byte 4 is the frame type; byte 5 the bundle kind.
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded.data(), encoded.size(), &frame, &consumed).ok());
}

TEST(CodecTest, BadChannelCloseTagFails) {
  std::vector<uint8_t> encoded = Encode(MakeChannelClose(FrameType::kEventBatch));
  encoded[5] = static_cast<uint8_t>(FrameType::kHello);  // Not a channel.
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded.data(), encoded.size(), &frame, &consumed).ok());
}

TEST(CodecTest, TrailingGarbageInPayloadFails) {
  std::vector<uint8_t> encoded = Encode(MakeHello(3));
  // Grow the payload by one byte and patch the length prefix to match: the
  // frame parses but leaves an unconsumed byte.
  encoded.push_back(0x00);
  encoded[0] = static_cast<uint8_t>(encoded.size() - 4);
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded.data(), encoded.size(), &frame, &consumed).ok());
}

TEST(CodecTest, ForgedHugeReportCountFailsWithoutHugeAllocation) {
  // Claim 2^40 reports with a 6-byte payload. The decoder must bail once
  // bytes run out, and SafeReserve must not pre-allocate the claimed count.
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kUpdateBundle),
                                  0 /* kind */, 0 /* site */, 0 /* round */};
  AppendVarint(uint64_t{1} << 40, &payload);
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

TEST(CodecTest, OverlongVarintFails) {
  // 11 continuation bytes: more than a 64-bit varint can carry.
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kEventBatch)};
  for (int i = 0; i < 11; ++i) payload.push_back(0x80);
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

// --- CommStats byte-constant calibration ---------------------------------
//
// The per-message byte estimates in monitor/comm_stats.h claim to match
// this codec's wire format; these tests re-derive them from actually
// encoded representative frames so the constants cannot silently drift
// from the wire (they are what fig6/fig11 byte counts are built from).

TEST(CodecCalibrationTest, UpdateBytesMatchEncodedReportsBundle) {
  // Representative mid-run kReports bundle: the counter ids an event
  // touches are near-sorted in layout order (small deltas), cumulative
  // counts sit in the thousands-to-hundred-thousands varint band.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 2;
  for (int64_t i = 0; i < 74; ++i) {
    bundle.reports.push_back(CounterReport{i * 5, 50000});
  }
  const std::vector<uint8_t> encoded = Encode(MakeFrame(bundle));
  // Exact wire size so ANY codec change trips this test: 9-byte frame
  // header (4 length + type + kind + site + round + count) plus 4 bytes per
  // report (1-byte delta + 3-byte varint count). The constant is the
  // rounded per-report cost with the header amortized (305/74 = 4.12).
  ASSERT_EQ(encoded.size(), 9u + 74u * 4u);
  const double per_report =
      static_cast<double>(encoded.size()) / static_cast<double>(bundle.reports.size());
  EXPECT_EQ(kEstimatedUpdateBytes, static_cast<uint64_t>(per_report + 0.5));
}

TEST(CodecCalibrationTest, BroadcastBytesMatchEncodedRoundAdvance) {
  // One RoundAdvance travels as its own frame: length prefix + type +
  // zigzag counter id (2 bytes for networks up to ~8k counters) + round +
  // f32 probability.
  RoundAdvance advance;
  advance.counter = 1500;
  advance.round = 3;
  advance.probability = 0.25f;
  const std::vector<uint8_t> encoded = Encode(MakeFrame(advance));
  EXPECT_EQ(encoded.size(), kEstimatedBroadcastBytes);
}

TEST(CodecCalibrationTest, SyncBytesMatchEncodedSyncBundle) {
  // Sync replies enumerate dense counter ranges: deltas collapse to one
  // byte each.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 1;
  bundle.round = 2;
  for (int64_t c = 100; c < 164; ++c) {
    bundle.reports.push_back(CounterReport{c, 50000});
  }
  const std::vector<uint8_t> encoded = Encode(MakeFrame(bundle));
  // Exact wire size: 9-byte header, a 5-byte first report (2-byte delta to
  // id 100 + 3-byte count), then 4 bytes per dense-range report.
  ASSERT_EQ(encoded.size(), 9u + 5u + 63u * 4u);
  const double per_report =
      static_cast<double>(encoded.size()) / static_cast<double>(bundle.reports.size());
  EXPECT_EQ(kEstimatedSyncBytes, static_cast<uint64_t>(per_report + 0.5));
}

TEST(CodecTest, RandomizedFuzzNeverCrashes) {
  Rng rng(777);
  std::vector<uint8_t> buffer;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    buffer.clear();
    const size_t size = rng.NextBounded(64);
    for (size_t i = 0; i < size; ++i) {
      buffer.push_back(static_cast<uint8_t>(rng.Next()));
    }
    Frame frame;
    size_t consumed = 0;
    // Outcome (ok or error) is irrelevant; surviving under ASan/UBSan is
    // the assertion.
    DecodeFrame(buffer.data(), buffer.size(), &frame, &consumed).ok();
  }
}

// --- Adversarial shapes the fuzz/ harnesses exercise continuously; pinned
// here as always-on regressions (the fuzz sweep found no crashes against
// these defenses — these tests keep it that way).

TEST(CodecTest, ForgedHugeEventBatchCountIsRejectedWithoutAllocation) {
  // Hand-built payload claiming ~2^40 values backed by 1 byte: the decoder
  // must reject the count against its cap before sizing anything by it (an
  // OOM lever otherwise).
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kEventBatch)};
  AppendVarint(ZigzagEncode(1), &payload);  // num_events
  AppendVarint(uint64_t{1} << 40, &payload);  // forged value count
  payload.push_back(0x00);  // one real value, then nothing
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

TEST(CodecTest, ForgedHugeReportCountIsRejectedWithoutAllocation) {
  std::vector<uint8_t> payload = {
      static_cast<uint8_t>(FrameType::kUpdateBundle)};
  payload.push_back(0);  // kind = kReports
  AppendVarint(ZigzagEncode(0), &payload);  // site
  AppendVarint(ZigzagEncode(0), &payload);  // round
  AppendVarint(std::numeric_limits<uint64_t>::max(), &payload);  // count
  Frame frame;
  EXPECT_FALSE(DecodeFramePayload(payload.data(), payload.size(), &frame).ok());
}

TEST(CodecTest, ExtremeCounterDeltasRoundTripWithoutOverflow) {
  // Adjacent INT64 extremes force maximal-magnitude deltas; the delta
  // arithmetic is defined-behavior unsigned wraparound on both sides, so
  // the exact ids must survive (UBSan asserts the "defined" part).
  UpdateBundle bundle;
  bundle.reports = {{std::numeric_limits<int64_t>::max(), 1},
                    {std::numeric_limits<int64_t>::min(), 2},
                    {0, 3},
                    {std::numeric_limits<int64_t>::min(), 4},
                    {std::numeric_limits<int64_t>::max(), 5}};
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(bundle)));
  EXPECT_TRUE(decoded.bundle == bundle);
}

TEST(CodecTest, NanProbabilityRoundTripsBitExactly) {
  // The codec transports float BITS; a NaN probability (possible from a
  // corrupted peer) must come back bit-identical, not normalized.
  RoundAdvance advance;
  advance.counter = 1;
  advance.round = 2;
  uint32_t nan_bits = 0x7fc00001u;
  std::memcpy(&advance.probability, &nan_bits, sizeof(advance.probability));
  const Frame decoded = DecodeOrDie(Encode(MakeFrame(advance)));
  uint32_t decoded_bits = 0;
  std::memcpy(&decoded_bits, &decoded.advance.probability,
              sizeof(decoded_bits));
  EXPECT_EQ(decoded_bits, nan_bits);
}

TEST(CodecTest, BitflipFuzzOnValidFramesNeverCrashes) {
  Rng rng(31337);
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 2;
  bundle.round = 4;
  for (int64_t c = 0; c < 50; ++c) {
    bundle.reports.push_back(CounterReport{c * 3, static_cast<uint32_t>(c)});
  }
  const std::vector<uint8_t> pristine = Encode(MakeFrame(bundle));
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<uint8_t> corrupted = pristine;
    const size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      const size_t at = rng.NextBounded(corrupted.size());
      corrupted[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    Frame frame;
    size_t consumed = 0;
    DecodeFrame(corrupted.data(), corrupted.size(), &frame, &consumed).ok();
  }
}

// --- v6's compression envelope, retired in v7. -------------------------
//
// v6 could wrap a site's kFinalCounts bundle as tag 9 | varint raw size |
// LZ block (each LZ token's high nibble counts the literal bytes after it).
// v7 has no envelope: every frame ships as its own type, and whatever a
// tag-9 frame claims, it fails as a bad frame-type tag before any of its
// claims is read.

/// A site's end-of-run final counts over a dense counter range: the one
/// frame kind v6 could envelope.
Frame BigFinalCountsFrame() {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kFinalCounts;
  bundle.site = 1;
  for (int64_t c = 0; c < 2000; ++c) {
    bundle.reports.push_back(CounterReport{c, 50000});
  }
  return MakeFrame(bundle);
}

/// A v6 envelope frame, length prefix included: tag 9, the declared raw
/// size, then `block`.
std::vector<uint8_t> EnvelopeWire(uint64_t declared_size,
                                  const std::vector<uint8_t>& block) {
  std::vector<uint8_t> payload = {9};
  AppendVarint(declared_size, &payload);
  payload.insert(payload.end(), block.begin(), block.end());
  std::vector<uint8_t> wire;
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
  }
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

/// A v6 LZ block of fewer than 15 literal bytes and no match.
std::vector<uint8_t> LiteralBlock(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> block;
  block.push_back(static_cast<uint8_t>(raw.size() << 4));
  for (const uint8_t byte : raw) block.push_back(byte);
  return block;
}

void ExpectBadFrameTypeTag(const std::vector<uint8_t>& wire) {
  Frame frame;
  size_t consumed = 0;
  const Status status = DecodeFrame(wire.data(), wire.size(), &frame, &consumed);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad frame type tag"), std::string::npos)
      << status;
}

TEST(CompressEnvelopeTest, IneligibleFrameTypesAlwaysShipRaw) {
  // A kReports bundle and an event batch LZ would shrink (one value
  // repeated) ship under their own type tags and round-trip.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 1;
  for (int64_t c = 0; c < 2000; ++c) {
    bundle.reports.push_back(CounterReport{c, 9});
  }
  const std::vector<uint8_t> bundle_wire = Encode(MakeFrame(bundle));
  EXPECT_EQ(bundle_wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));
  EXPECT_TRUE(DecodeOrDie(bundle_wire).bundle == bundle);

  EventBatch batch;
  batch.num_events = 1024;
  batch.values.assign(4096, 2);
  const std::vector<uint8_t> batch_wire = Encode(MakeFrame(batch));
  EXPECT_EQ(batch_wire[4], static_cast<uint8_t>(FrameType::kEventBatch));
  EXPECT_TRUE(DecodeOrDie(batch_wire).batch == batch);
}

TEST(CompressEnvelopeTest, TinyEligibleFrameStaysRaw) {
  // Final-count bundles, tiny or large, ship as plain kUpdateBundle frames.
  UpdateBundle tiny;
  tiny.kind = UpdateBundle::Kind::kFinalCounts;
  tiny.reports = {{0, 1}, {1, 2}, {2, 3}};
  for (const Frame& frame : {MakeFrame(tiny), BigFinalCountsFrame()}) {
    const std::vector<uint8_t> wire = Encode(frame);
    EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));
    const Frame decoded = DecodeOrDie(wire);
    ASSERT_EQ(decoded.type, FrameType::kUpdateBundle);
    EXPECT_TRUE(decoded.bundle == frame.bundle);
  }
}

TEST(CompressEnvelopeTest, DeclaredSizeZeroRejected) {
  ExpectBadFrameTypeTag(EnvelopeWire(0, {}));
}

TEST(CompressEnvelopeTest, DeclaredSizeBeyondMaxPayloadRejected) {
  ExpectBadFrameTypeTag(
      EnvelopeWire(static_cast<uint64_t>(kMaxFramePayload) + 1, {0x00}));
}

TEST(CompressEnvelopeTest, NestedEnvelopeRejected) {
  // An envelope whose block unpacks to another envelope.
  const std::vector<uint8_t> inner = {9, 0x01, 0x00};
  ExpectBadFrameTypeTag(EnvelopeWire(inner.size(), LiteralBlock(inner)));
}

TEST(CompressEnvelopeTest, CompressedHelloRejected) {
  // An enveloped hello, current and v6-shaped (with the caps varint).
  const std::vector<uint8_t> hello_wire = Encode(MakeHello(3));
  std::vector<uint8_t> hello(hello_wire.begin() + 4, hello_wire.end());
  ExpectBadFrameTypeTag(EnvelopeWire(hello.size(), LiteralBlock(hello)));
  const std::vector<uint8_t> v6_hello = {
      static_cast<uint8_t>(FrameType::kHello), 6, 6, 1};
  ExpectBadFrameTypeTag(EnvelopeWire(v6_hello.size(), LiteralBlock(v6_hello)));
}

TEST(CompressEnvelopeTest, TruncatedLzBlockRejected) {
  // The token promises eight literals; three follow.
  ExpectBadFrameTypeTag(EnvelopeWire(8, {0x80, 'a', 'b', 'c'}));
}

TEST(CompressEnvelopeTest, GarbageLzBlockNeverCrashes) {
  Rng rng(40490);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<uint8_t> garbage(rng.NextBounded(256));
    for (uint8_t& byte : garbage) byte = static_cast<uint8_t>(rng.Next());
    ExpectBadFrameTypeTag(EnvelopeWire(1 + rng.NextBounded(1 << 12), garbage));
  }
}

// --- Hellos of other versions. ------------------------------------------

TEST(CompressCapsTest, V4HelloOmitsTheCapsVarintByteExactly) {
  // A v4 hello has no caps varint, and neither has v8's: the two differ in
  // the version byte alone. The decoder reads the v4 shape byte-exactly, so
  // the conformance layer can report the peer's version mismatch instead of
  // a decode error.
  const std::vector<uint8_t> current_wire = Encode(MakeHello(3));
  // u32-LE length prefix, then type, version and the zigzag site id.
  const std::vector<uint8_t> v4_wire = {
      3, 0, 0, 0, static_cast<uint8_t>(FrameType::kHello), 4,
      static_cast<uint8_t>(ZigzagEncode(3))};
  ASSERT_EQ(v4_wire.size(), current_wire.size());
  for (size_t i = 0; i < v4_wire.size(); ++i) {
    if (i != 5) {
      EXPECT_EQ(v4_wire[i], current_wire[i]) << "byte " << i;
    }
  }

  const Frame decoded = DecodeOrDie(v4_wire);
  EXPECT_EQ(decoded.type, FrameType::kHello);
  EXPECT_EQ(decoded.protocol_version, 4);
  EXPECT_EQ(decoded.site, 3);
}

}  // namespace
}  // namespace dsgm
