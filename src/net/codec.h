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
// as value - min in that many bits (codec.cc has the layout). Of the six
// frame types, three carry the counter protocol's messages (update bundles,
// round advances, event batches), and three are transport control frames
// (kChannelClose, kHello, kHeartbeat) that never reach application code.
// kHeartbeat is the only telemetry frame: liveness, clock samples, health
// stats and the trace drain ride one frame, attributed by the connection it
// arrives on (its hello), never by a site id in the payload.
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
  kHeartbeat = 6,     // telemetry: clock samples, health stats and trace
                      // drain (site -> coordinator); the coordinator echoes
                      // it back to the site with only its clock sample set
  // 7 and 8 were the v7 stats report and trace chunk, 9 the v6 compression
  // envelope; the decoder rejects all three as bad tags.
};

/// Wire protocol revision, carried in every kHello frame ahead of the site
/// id. It is the only version either end speaks: bump it on any
/// frame-format change. The accepting side rejects a hello for any other
/// version with a clear Status instead of misparsing later frames.
/// v7: a hello is the version and the site id only (v6 added a capability
/// varint), and there is no compression envelope.
/// v8: kHeartbeat is the one telemetry frame (v7's kStatsReport and
/// kTraceChunk folded into it), and no telemetry payload names a site.
constexpr uint8_t kProtocolVersion = 8;

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
  int32_t site = -1;
  uint8_t protocol_version = kProtocolVersion;
  /// kHeartbeat: the clock samples for skew estimation (net/wire.h), zeros
  /// before the first echo round-trip; the sender's cumulative stats; and
  /// the trace drain since the previous frame. An echo sets only
  /// hb.send_nanos.
  HeartbeatTimestamps hb;
  SiteStatsReport stats;
  TraceChunk trace;
};

Frame MakeFrame(UpdateBundle bundle);
Frame MakeFrame(RoundAdvance advance);
Frame MakeFrame(EventBatch batch);
Frame MakeChannelClose(FrameType channel);
Frame MakeHello(int32_t site);
Frame MakeHeartbeat(const HeartbeatTimestamps& hb,
                    const SiteStatsReport& stats = {}, TraceChunk trace = {});

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
