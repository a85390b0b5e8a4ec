// Tests for net/compress.h (the wire's LZ byte codec) and the
// kCompressed envelope path in net/codec.h. The decompressor is the
// untrusted surface — every adversarial shape here must come back as a
// Status error, never a crash, an out-of-bounds access, or a silent
// wrong-size output (the ASan/UBSan CI job runs this suite to enforce
// that; fuzz_compress_decode and fuzz_compress_roundtrip keep probing the
// same surface continuously).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/compress.h"

namespace dsgm {
namespace {

std::vector<uint8_t> Pack(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> packed;
  LzCompress(raw.data(), raw.size(), &packed);
  return packed;
}

std::vector<uint8_t> UnpackOrDie(const std::vector<uint8_t>& packed,
                                 size_t expected_size) {
  std::vector<uint8_t> raw;
  const Status status =
      LzDecompress(packed.data(), packed.size(), expected_size, &raw);
  EXPECT_TRUE(status.ok()) << status;
  return raw;
}

TEST(CompressTest, EmptyInputRoundTrips) {
  const std::vector<uint8_t> packed = Pack({});
  EXPECT_TRUE(UnpackOrDie(packed, 0).empty());
}

TEST(CompressTest, TinyInputsBelowMinMatchRoundTrip) {
  // 1..kLzMinMatch-byte inputs cannot contain a match; they must still
  // round-trip as literal-only blocks.
  for (size_t n = 1; n <= kLzMinMatch; ++n) {
    std::vector<uint8_t> raw;
    for (size_t i = 0; i < n; ++i) raw.push_back(static_cast<uint8_t>(i * 37));
    EXPECT_EQ(UnpackOrDie(Pack(raw), raw.size()), raw) << "n=" << n;
  }
}

TEST(CompressTest, RepetitiveInputCompressesWell) {
  // A short alphabet tiling a long buffer, the texture of a varint-packed
  // final-count bundle. Demand a real ratio, not just "smaller".
  std::vector<uint8_t> raw;
  for (int i = 0; i < 8192; ++i) raw.push_back(static_cast<uint8_t>(i % 3));
  const std::vector<uint8_t> packed = Pack(raw);
  EXPECT_LT(packed.size(), raw.size() / 4);
  EXPECT_EQ(UnpackOrDie(packed, raw.size()), raw);
}

TEST(CompressTest, IncompressibleInputStaysWithinBound) {
  Rng rng(98765);
  std::vector<uint8_t> raw;
  for (int i = 0; i < 4096; ++i) raw.push_back(static_cast<uint8_t>(rng.Next()));
  const std::vector<uint8_t> packed = Pack(raw);
  EXPECT_LE(packed.size(), LzCompressBound(raw.size()));
  EXPECT_EQ(UnpackOrDie(packed, raw.size()), raw);
}

TEST(CompressTest, RandomizedRoundTripProperty) {
  // Mixed-texture buffers: runs, copies of earlier windows (long matches at
  // varied offsets), and noise. Every shape must round-trip bit-exactly.
  Rng rng(20260807);
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::vector<uint8_t> raw;
    const size_t target = rng.NextBounded(4096);
    while (raw.size() < target) {
      switch (rng.NextBounded(3)) {
        case 0: {  // Literal noise.
          const size_t n = 1 + rng.NextBounded(32);
          for (size_t i = 0; i < n; ++i) {
            raw.push_back(static_cast<uint8_t>(rng.Next()));
          }
          break;
        }
        case 1: {  // A run.
          const uint8_t byte = static_cast<uint8_t>(rng.Next());
          const size_t n = 1 + rng.NextBounded(256);
          raw.insert(raw.end(), n, byte);
          break;
        }
        default: {  // Copy an earlier window (forces interior matches).
          if (raw.empty()) break;
          const size_t offset = 1 + rng.NextBounded(raw.size());
          const size_t n = 1 + rng.NextBounded(128);
          for (size_t i = 0; i < n; ++i) {
            raw.push_back(raw[raw.size() - offset]);
          }
          break;
        }
      }
    }
    const std::vector<uint8_t> packed = Pack(raw);
    ASSERT_LE(packed.size(), LzCompressBound(raw.size()))
        << "iteration " << iteration;
    ASSERT_EQ(UnpackOrDie(packed, raw.size()), raw) << "iteration " << iteration;
  }
}

TEST(CompressTest, DecompressAppendsAfterExistingBytes) {
  const std::vector<uint8_t> raw = {1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3};
  const std::vector<uint8_t> packed = Pack(raw);
  std::vector<uint8_t> out = {0xaa, 0xbb};
  ASSERT_TRUE(LzDecompress(packed.data(), packed.size(), raw.size(), &out).ok());
  ASSERT_EQ(out.size(), 2 + raw.size());
  EXPECT_EQ(out[0], 0xaa);
  EXPECT_EQ(out[1], 0xbb);
  EXPECT_TRUE(std::memcmp(out.data() + 2, raw.data(), raw.size()) == 0);
}

// --- Adversarial inputs: errors, never crashes. ------------------------

TEST(CompressTest, TruncationAtEveryPrefixFails) {
  std::vector<uint8_t> raw;
  for (int i = 0; i < 600; ++i) raw.push_back(static_cast<uint8_t>(i % 7));
  for (int i = 0; i < 64; ++i) raw.push_back(static_cast<uint8_t>(i * 13));
  const std::vector<uint8_t> packed = Pack(raw);
  for (size_t cut = 0; cut < packed.size(); ++cut) {
    std::vector<uint8_t> out;
    EXPECT_FALSE(LzDecompress(packed.data(), cut, raw.size(), &out).ok())
        << "prefix of length " << cut << " decompressed";
  }
}

TEST(CompressTest, DeclaredSizeMismatchFailsBothWays) {
  std::vector<uint8_t> raw;
  for (int i = 0; i < 500; ++i) raw.push_back(static_cast<uint8_t>(i % 5));
  const std::vector<uint8_t> packed = Pack(raw);
  for (size_t claimed : {raw.size() - 1, raw.size() + 1, size_t{0}}) {
    std::vector<uint8_t> out;
    EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), claimed, &out).ok())
        << "claimed " << claimed << " for a " << raw.size() << "-byte block";
  }
}

TEST(CompressTest, ZeroMatchOffsetFails) {
  // token: 4 literals, then a match; offset 0x0000 points at nothing.
  std::vector<uint8_t> packed = {0x41, 'a', 'b', 'c', 'd', 0x00, 0x00};
  std::vector<uint8_t> out;
  EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), 9, &out).ok());
}

TEST(CompressTest, OutOfWindowMatchOffsetFails) {
  // 4 literals produced so far, then a match reaching 5 bytes back: one
  // byte before the start of the output buffer.
  std::vector<uint8_t> packed = {0x41, 'a', 'b', 'c', 'd', 0x05, 0x00};
  std::vector<uint8_t> out;
  EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), 9, &out).ok());
}

TEST(CompressTest, MatchFromEmptyOutputFails) {
  // A match token before any literal exists to copy from.
  std::vector<uint8_t> packed = {0x01, 0x01, 0x00};
  std::vector<uint8_t> out;
  EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), 5, &out).ok());
}

TEST(CompressTest, LiteralLengthOverrunFails) {
  // Token claims 10 literals; only 3 bytes follow.
  std::vector<uint8_t> packed = {0xa0, 'x', 'y', 'z'};
  std::vector<uint8_t> out;
  EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), 10, &out).ok());
}

TEST(CompressTest, ExtensionByteBombIsBounded) {
  // A literal-length nibble of 15 continued by a long 0xff chain claims a
  // gigantic literal run backed by nothing. Must fail promptly — the
  // declared expected_size (capped by the caller) bounds any allocation.
  std::vector<uint8_t> packed(1, 0xf0);
  packed.insert(packed.end(), 4096, 0xff);
  std::vector<uint8_t> out;
  EXPECT_FALSE(LzDecompress(packed.data(), packed.size(), 1 << 20, &out).ok());
}

TEST(CompressTest, RandomBytesNeverCrash) {
  Rng rng(1337);
  std::vector<uint8_t> packed;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    packed.clear();
    const size_t size = rng.NextBounded(128);
    for (size_t i = 0; i < size; ++i) {
      packed.push_back(static_cast<uint8_t>(rng.Next()));
    }
    std::vector<uint8_t> out;
    // Outcome (ok or error) is irrelevant; surviving under ASan/UBSan is
    // the assertion. Cap expected_size the way the codec does.
    LzDecompress(packed.data(), packed.size(), rng.NextBounded(1 << 16), &out)
        .ok();
  }
}

TEST(CompressTest, WireCompressionSwitchToggles) {
  ASSERT_TRUE(WireCompressionEnabled());  // On by default.
  SetWireCompressionEnabled(false);
  EXPECT_FALSE(WireCompressionEnabled());
  SetWireCompressionEnabled(true);
  EXPECT_TRUE(WireCompressionEnabled());
}

// --- The kCompressed envelope through the frame codec. -----------------

/// A site's end-of-run final counts over a dense counter range: the one
/// frame kind the envelope may carry.
Frame BigFinalCountsFrame() {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kFinalCounts;
  bundle.site = 1;
  for (int64_t c = 0; c < 2000; ++c) {
    bundle.reports.push_back(CounterReport{c, 50000});
  }
  return MakeFrame(bundle);
}

TEST(CompressEnvelopeTest, EligibleFrameShipsSmallerAndRoundTrips) {
  SetWireCompressionEnabled(true);
  const Frame frame = BigFinalCountsFrame();
  std::vector<uint8_t> raw;
  AppendFrame(frame, &raw);
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(frame, &wire);
  EXPECT_LT(wire.size(), raw.size());
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kCompressed));

  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(wire.data(), wire.size(), &decoded, &consumed).ok());
  EXPECT_EQ(consumed, wire.size());
  // The envelope is unwrapped in the decoder: the Frame carries the INNER
  // type plus the compressed flag for the conformance layer.
  ASSERT_EQ(decoded.type, FrameType::kUpdateBundle);
  EXPECT_TRUE(decoded.compressed);
  EXPECT_TRUE(decoded.bundle == frame.bundle);
}

TEST(CompressEnvelopeTest, DisabledSwitchShipsRaw) {
  SetWireCompressionEnabled(false);
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(BigFinalCountsFrame(), &wire);
  SetWireCompressionEnabled(true);
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));
}

TEST(CompressEnvelopeTest, IneligibleFrameTypesAlwaysShipRaw) {
  // kReports bundles ride the latency path and event batches are already
  // bit-packed — only kFinalCounts bundles are eligible.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 1;
  for (int64_t c = 0; c < 2000; ++c) {
    bundle.reports.push_back(CounterReport{c, 9});
  }
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(MakeFrame(bundle), &wire);
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));

  // A batch LZ would shrink: one value repeated.
  EventBatch batch;
  batch.num_events = 1024;
  batch.values.assign(4096, 2);
  std::vector<uint8_t> raw;
  AppendFrame(MakeFrame(batch), &raw);
  wire.clear();
  AppendFrameMaybeCompressed(MakeFrame(batch), &wire);
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kEventBatch));
  EXPECT_EQ(wire, raw);
}

TEST(CompressEnvelopeTest, IncompressiblePayloadFallsBackToRaw) {
  // An eligible bundle of high-entropy ids and counts: the LZ pass cannot
  // win, so the profitability check must ship the raw frame, not a bigger
  // envelope.
  Rng rng(5150);
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kFinalCounts;
  bundle.site = 1;
  for (int i = 0; i < 1024; ++i) {
    bundle.reports.push_back(
        CounterReport{static_cast<int64_t>(rng.Next() >> 16),
                      static_cast<uint32_t>(rng.Next())});
  }
  std::vector<uint8_t> raw;
  AppendFrame(MakeFrame(bundle), &raw);
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(MakeFrame(bundle), &wire);
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));
  EXPECT_EQ(wire.size(), raw.size());
}

TEST(CompressEnvelopeTest, TinyEligibleFrameStaysRaw) {
  // Below the kCompressMinPayload floor the envelope cannot amortize.
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kFinalCounts;
  bundle.reports = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(MakeFrame(bundle), &wire);
  EXPECT_EQ(wire[4], static_cast<uint8_t>(FrameType::kUpdateBundle));
}

std::vector<uint8_t> FrameOf(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire;
  wire.reserve(payload.size() + 4);
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
  }
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

Status DecodeWire(const std::vector<uint8_t>& wire) {
  Frame frame;
  size_t consumed = 0;
  return DecodeFrame(wire.data(), wire.size(), &frame, &consumed);
}

TEST(CompressEnvelopeTest, DeclaredSizeZeroRejected) {
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kCompressed)};
  AppendVarint(0, &payload);
  EXPECT_FALSE(DecodeWire(FrameOf(payload)).ok());
}

TEST(CompressEnvelopeTest, DeclaredSizeBeyondMaxPayloadRejected) {
  // The envelope's declared raw size is a remote claim; anything past
  // kMaxFramePayload must be rejected BEFORE any decompression work.
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kCompressed)};
  AppendVarint(static_cast<uint64_t>(kMaxFramePayload) + 1, &payload);
  payload.push_back(0x00);
  EXPECT_FALSE(DecodeWire(FrameOf(payload)).ok());
}

TEST(CompressEnvelopeTest, NestedEnvelopeRejected) {
  // Compress a buffer that decompresses to another kCompressed tag: the
  // decoder must refuse to recurse (a zip-bomb lever otherwise).
  std::vector<uint8_t> inner = {static_cast<uint8_t>(FrameType::kCompressed),
                                0x01, 0x00};
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kCompressed)};
  AppendVarint(inner.size(), &payload);
  LzCompress(inner.data(), inner.size(), &payload);
  EXPECT_FALSE(DecodeWire(FrameOf(payload)).ok());
}

TEST(CompressEnvelopeTest, CompressedHelloRejected) {
  // Hellos must stay readable pre-negotiation; an enveloped hello is a
  // protocol violation the codec itself refuses.
  std::vector<uint8_t> inner;
  AppendFrame(MakeHello(3), &inner);
  std::vector<uint8_t> hello_payload(inner.begin() + 4, inner.end());
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kCompressed)};
  AppendVarint(hello_payload.size(), &payload);
  LzCompress(hello_payload.data(), hello_payload.size(), &payload);
  EXPECT_FALSE(DecodeWire(FrameOf(payload)).ok());
}

TEST(CompressEnvelopeTest, TruncatedLzBlockRejected) {
  const Frame frame = BigFinalCountsFrame();
  SetWireCompressionEnabled(true);
  std::vector<uint8_t> wire;
  AppendFrameMaybeCompressed(frame, &wire);
  ASSERT_EQ(wire[4], static_cast<uint8_t>(FrameType::kCompressed));
  // Chop the LZ block's tail and patch the length prefix to match.
  std::vector<uint8_t> cut(wire.begin(), wire.end() - 16);
  const size_t payload = cut.size() - 4;
  for (int i = 0; i < 4; ++i) {
    cut[static_cast<size_t>(i)] = static_cast<uint8_t>(payload >> (8 * i));
  }
  EXPECT_FALSE(DecodeWire(cut).ok());
}

TEST(CompressEnvelopeTest, GarbageLzBlockNeverCrashes) {
  Rng rng(40490);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<uint8_t> payload = {
        static_cast<uint8_t>(FrameType::kCompressed)};
    AppendVarint(1 + rng.NextBounded(1 << 12), &payload);
    const size_t garbage = rng.NextBounded(256);
    for (size_t i = 0; i < garbage; ++i) {
      payload.push_back(static_cast<uint8_t>(rng.Next()));
    }
    DecodeWire(FrameOf(payload)).ok();
  }
}

// --- Hello capability bits through the codec. --------------------------

TEST(CompressCapsTest, HelloCapsRoundTrip) {
  Frame hello = MakeHello(7, kCapCompression | (uint64_t{1} << 17));
  std::vector<uint8_t> wire;
  AppendFrame(hello, &wire);
  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(DecodeFrame(wire.data(), wire.size(), &decoded, &consumed).ok());
  ASSERT_EQ(decoded.type, FrameType::kHello);
  EXPECT_EQ(decoded.site, 7);
  EXPECT_EQ(decoded.caps, kCapCompression | (uint64_t{1} << 17));
}

TEST(CompressCapsTest, DefaultHelloAdvertisesCompressionWhenEnabled) {
  SetWireCompressionEnabled(true);
  EXPECT_EQ(MakeHello(1).caps & kCapCompression, kCapCompression);
  SetWireCompressionEnabled(false);
  EXPECT_EQ(MakeHello(1).caps & kCapCompression, 0u);
  SetWireCompressionEnabled(true);
}

TEST(CompressCapsTest, V4HelloOmitsTheCapsVarintByteExactly) {
  // A v4 peer's hello has no trailing caps varint at all. The encoder always
  // writes one now, but the decoder must still read the v4 shape byte-exactly
  // (no caps, nothing left over), so the conformance layer can report the
  // peer's version mismatch instead of a decode error.
  Frame current = MakeHello(3, 0);
  std::vector<uint8_t> current_wire;
  AppendFrame(current, &current_wire);
  // u32-LE length prefix, then type, version and the zigzag site id.
  const std::vector<uint8_t> v4_wire = {
      3, 0, 0, 0, static_cast<uint8_t>(FrameType::kHello), 4,
      static_cast<uint8_t>(ZigzagEncode(3))};
  EXPECT_EQ(v4_wire.size() + 1, current_wire.size());

  Frame decoded;
  size_t consumed = 0;
  ASSERT_TRUE(
      DecodeFrame(v4_wire.data(), v4_wire.size(), &decoded, &consumed).ok());
  EXPECT_EQ(consumed, v4_wire.size());
  EXPECT_EQ(decoded.type, FrameType::kHello);
  EXPECT_EQ(decoded.protocol_version, 4);
  EXPECT_EQ(decoded.site, 3);
  EXPECT_EQ(decoded.caps, 0u);  // Never inherited from an unsent field.
}

}  // namespace
}  // namespace dsgm
