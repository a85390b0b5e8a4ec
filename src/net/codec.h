// Binary wire codec for the cluster protocol frames.
//
// Every frame crossing a transport is encoded as
//
//   u32-LE payload_length | payload
//   payload := u8 frame_type | body
//
// with varint (LEB128) packed bodies; signed integers use zigzag coding and
// counter ids inside a bundle are delta-coded (sync bundles enumerate dense
// counter ranges, so deltas collapse to one byte each). Event batches are
// column bit-packed instead: per-column min and bit width, then each value
// as value - min in that many bits (codec.cc has the layout). Of the eight
// frame types, three carry the counter protocol's messages (update bundles,
// round advances, event batches), two are observability frames
// (kStatsReport, kTraceChunk), and three are transport control frames
// (kChannelClose, kHello, kHeartbeat) that never reach application code.
//
// Decoding is defensive: truncated frames, oversized length prefixes, bad
// enum tags, and trailing bytes all return a Status error and never touch
// memory outside the input buffer.

#ifndef DSGM_NET_CODEC_H_
#define DSGM_NET_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace dsgm {

enum class FrameType : uint8_t {
  kUpdateBundle = 1,  // site -> coordinator
  kRoundAdvance = 2,  // coordinator -> site
  kEventBatch = 3,    // dispatcher -> site
  kChannelClose = 4,  // transport control: sender closed one logical channel
  kHello = 5,         // transport control: connection announces its site id
  kHeartbeat = 6,     // transport control: liveness beacon with clock
                      // samples; the coordinator echoes it back to the site
  kStatsReport = 7,   // observability: per-site stats piggybacked on heartbeats
  kTraceChunk = 8,    // observability: incremental TraceRing drain (site ->
                      // coordinator), piggybacked on the heartbeat cadence
  // 9 was the v6 compression envelope; the decoder rejects it as a bad tag.
};

/// Wire protocol revision, carried in every kHello frame ahead of the site
/// id. It is the only version either end speaks: bump it on any
/// frame-format change. The accepting side rejects a hello for any other
/// version with a clear Status instead of misparsing later frames.
/// v7: a hello is the version and the site id only (v6 added a capability
/// varint), and there is no compression envelope.
constexpr uint8_t kProtocolVersion = 7;

/// Tagged union of everything a connection can carry. Only the member
/// selected by `type` is meaningful.
struct Frame {
  FrameType type = FrameType::kUpdateBundle;
  UpdateBundle bundle;   // kUpdateBundle
  RoundAdvance advance;  // kRoundAdvance
  EventBatch batch;      // kEventBatch
  /// kChannelClose: which logical channel the sender closed.
  FrameType channel = FrameType::kUpdateBundle;
  /// kHello: the connecting site's id and the protocol revision it speaks.
  /// The codec round-trips any version value, and ignores whatever follows
  /// the site id in a hello of another version; rejecting mismatches is the
  /// transport's job (it owns the error message and the Status code).
  /// kHeartbeat reuses `site`: the sender's claimed site id. Receivers treat
  /// heartbeats as per-connection liveness evidence only — the claimed id is
  /// never used to index protocol state, so a forged id proves nothing but
  /// the forger's own connection being alive.
  int32_t site = -1;
  uint8_t protocol_version = kProtocolVersion;
  /// kStatsReport: the sender's cumulative stats. Like heartbeats, the
  /// embedded site id is a claim — receivers must check it against the
  /// connection's authenticated id and drop mismatches before letting it
  /// index the health table.
  SiteStatsReport stats;
  /// kHeartbeat: the clock samples for skew estimation (net/wire.h).
  /// Zeros before the first echo round-trip.
  HeartbeatTimestamps hb;
  /// kTraceChunk: the shipped trace events. The embedded site id is a
  /// claim, checked against the connection's hello id like stats reports.
  TraceChunk trace;
};

Frame MakeFrame(UpdateBundle bundle);
Frame MakeFrame(RoundAdvance advance);
Frame MakeFrame(EventBatch batch);
Frame MakeChannelClose(FrameType channel);
Frame MakeHello(int32_t site);
Frame MakeHeartbeat(int32_t site);
Frame MakeHeartbeat(int32_t site, const HeartbeatTimestamps& hb);
Frame MakeStatsReport(const SiteStatsReport& stats);
Frame MakeTraceChunk(TraceChunk chunk);

/// Upper bound on one frame's payload; a length prefix above this is
/// rejected before any allocation (protects against corrupt peers).
constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Reads the u32-LE length prefix from the first 4 bytes of `data` — THE
/// framing rule, shared by every transport's parser so it cannot diverge.
constexpr uint32_t DecodeLengthPrefix(const uint8_t* data) {
  return static_cast<uint32_t>(data[0]) |
         (static_cast<uint32_t>(data[1]) << 8) |
         (static_cast<uint32_t>(data[2]) << 16) |
         (static_cast<uint32_t>(data[3]) << 24);
}

/// Appends the length prefix plus encoded payload of `frame` to `out`. An
/// event batch must hold num_events whole rows: values.size() is
/// num_events times the row width, and zero when num_events is (checked).
void AppendFrame(const Frame& frame, std::vector<uint8_t>* out);

/// Decodes one payload (the bytes after the length prefix). The payload
/// must be consumed exactly; trailing bytes are an error.
Status DecodeFramePayload(const uint8_t* data, size_t size, Frame* out);

/// Decodes one length-prefixed frame from the front of a buffer. On success
/// `*consumed` is the number of bytes the frame occupied. A buffer that
/// ends mid-frame is an error (transports read exact lengths, so a short
/// buffer means corruption, not "try again").
Status DecodeFrame(const uint8_t* data, size_t size, Frame* out, size_t* consumed);

// --- Primitives, exposed for tests.

void AppendVarint(uint64_t value, std::vector<uint8_t>* out);

constexpr uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

constexpr int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

}  // namespace dsgm

#endif  // DSGM_NET_CODEC_H_
