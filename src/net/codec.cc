#include "net/codec.h"

#include <algorithm>
#include <cstring>

namespace dsgm {
namespace {

/// Bounds-checked forward reader over a payload buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  const uint8_t* cursor() const { return data_ + pos_; }
  void SkipRemaining() { pos_ = size_; }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return InvalidArgumentError("codec: truncated frame");
    *out = data_[pos_++];
    return Status::Ok();
  }

  Status ReadVarint(uint64_t* out) {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= size_) return InvalidArgumentError("codec: truncated varint");
      const uint8_t byte = data_[pos_++];
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = value;
        return Status::Ok();
      }
    }
    return InvalidArgumentError("codec: varint longer than 64 bits");
  }

  Status ReadZigzag(int64_t* out) {
    uint64_t raw = 0;
    DSGM_RETURN_IF_ERROR(ReadVarint(&raw));
    *out = ZigzagDecode(raw);
    return Status::Ok();
  }

  Status ReadFloat(float* out) {
    if (remaining() < 4) return InvalidArgumentError("codec: truncated float");
    uint32_t bits = 0;
    for (int i = 0; i < 4; ++i) {
      bits |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    }
    pos_ += 4;
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendZigzag(int64_t value, std::vector<uint8_t>* out) {
  AppendVarint(ZigzagEncode(value), out);
}

void AppendFloat(float value, std::vector<uint8_t>* out) {
  uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

/// Caps a decoder-side reserve() by what the remaining bytes could possibly
/// hold, so a forged element count cannot force a huge allocation.
size_t SafeReserve(uint64_t claimed, size_t bytes_left, size_t min_bytes_per_item) {
  const uint64_t cap = bytes_left / min_bytes_per_item;
  return static_cast<size_t>(claimed < cap ? claimed : cap);
}

void AppendBundleBody(const UpdateBundle& bundle, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(bundle.kind));
  AppendZigzag(bundle.site, out);
  AppendZigzag(bundle.round, out);
  AppendVarint(bundle.reports.size(), out);
  int64_t previous = 0;
  for (const CounterReport& report : bundle.reports) {
    // Two's-complement delta (wraps instead of signed overflow); the
    // decoder accumulates with the same unsigned arithmetic.
    AppendZigzag(static_cast<int64_t>(static_cast<uint64_t>(report.counter) -
                                      static_cast<uint64_t>(previous)),
                 out);
    AppendVarint(report.value, out);
    previous = report.counter;
  }
}

Status DecodeBundleBody(ByteReader* reader, UpdateBundle* out) {
  uint8_t kind = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadU8(&kind));
  if (kind > static_cast<uint8_t>(UpdateBundle::Kind::kFinalCounts)) {
    return InvalidArgumentError("codec: bad UpdateBundle kind tag");
  }
  out->kind = static_cast<UpdateBundle::Kind>(kind);
  int64_t site = 0;
  int64_t round = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&site));
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&round));
  if (site < INT32_MIN || site > INT32_MAX || round < INT32_MIN || round > INT32_MAX) {
    return InvalidArgumentError("codec: UpdateBundle site/round out of range");
  }
  out->site = static_cast<int32_t>(site);
  out->round = static_cast<int32_t>(round);
  uint64_t count = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&count));
  out->reports.clear();
  out->reports.reserve(SafeReserve(count, reader->remaining(), 2));
  int64_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta = 0;
    uint64_t value = 0;
    DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&delta));
    DSGM_RETURN_IF_ERROR(reader->ReadVarint(&value));
    if (value > UINT32_MAX) {
      return InvalidArgumentError("codec: CounterReport value out of range");
    }
    // Unsigned accumulation: a crafted delta must not be signed overflow
    // (UB); wraparound just yields an id the consumer's bounds checks drop.
    previous = static_cast<int64_t>(static_cast<uint64_t>(previous) +
                                    static_cast<uint64_t>(delta));
    out->reports.push_back(CounterReport{previous, static_cast<uint32_t>(value)});
  }
  return Status::Ok();
}

void AppendAdvanceBody(const RoundAdvance& advance, std::vector<uint8_t>* out) {
  AppendZigzag(advance.counter, out);
  AppendZigzag(advance.round, out);
  AppendFloat(advance.probability, out);
}

Status DecodeAdvanceBody(ByteReader* reader, RoundAdvance* out) {
  int64_t round = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&out->counter));
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&round));
  if (round < INT32_MIN || round > INT32_MAX) {
    return InvalidArgumentError("codec: RoundAdvance round out of range");
  }
  out->round = static_cast<int32_t>(round);
  return reader->ReadFloat(&out->probability);
}

/// Bits needed for a column whose values span [min, min + span]: 0 for a
/// constant column, 32 for one holding both INT32_MIN and INT32_MAX.
uint8_t BitWidth(uint32_t span) {
  return span == 0 ? 0 : static_cast<uint8_t>(32 - __builtin_clz(span));
}

/// One column of a packed event batch: its minimum and its bit width.
struct PackedColumn {
  int32_t min = 0;
  uint8_t width = 0;
};

// Event batch body, column bit-packed:
//
//   zigzag num_events | varint count
//   if count > 0: varint stride | stride x (zigzag min | u8 width) | bits
//
// A batch is num_events rows of `stride` values (one row per event), so
// count is num_events x stride, and a batch without events has no values:
// the decoder rejects any other framing. Each value is stored as
// value - min in its column's width bits, LSB-first and row by row, and the
// bit stream is padded to a whole byte. A network's variables have few
// states, so most columns take 1-2 bits per value.
void AppendBatchBody(const EventBatch& batch, std::vector<uint8_t>* out) {
  AppendZigzag(batch.num_events, out);
  const size_t count = batch.values.size();
  DSGM_CHECK_LE(count, kMaxFramePayload);  // The decoder's cap.
  AppendVarint(count, out);
  if (count == 0) {
    DSGM_CHECK_EQ(batch.num_events, 0) << "event batch rows without values";
    return;
  }
  const size_t rows = static_cast<size_t>(batch.num_events);
  DSGM_CHECK(rows > 0 && count % rows == 0)
      << "event batch of " << count << " values is not " << rows << " rows";
  const size_t stride = count / rows;
  AppendVarint(stride, out);
  const int32_t* values = batch.values.data();

  std::vector<int32_t> maxs(values, values + stride);
  std::vector<PackedColumn> columns(stride);
  for (size_t c = 0; c < stride; ++c) columns[c].min = values[c];
  for (size_t r = 1; r < rows; ++r) {
    const int32_t* row = values + r * stride;
    for (size_t c = 0; c < stride; ++c) {
      columns[c].min = std::min(columns[c].min, row[c]);
      maxs[c] = std::max(maxs[c], row[c]);
    }
  }
  uint64_t row_bits = 0;
  for (size_t c = 0; c < stride; ++c) {
    columns[c].width = BitWidth(static_cast<uint32_t>(maxs[c]) -
                                static_cast<uint32_t>(columns[c].min));
    row_bits += columns[c].width;
    AppendZigzag(columns[c].min, out);
    out->push_back(columns[c].width);
  }

  const size_t at = out->size();
  out->resize(at + static_cast<size_t>((rows * row_bits + 7) / 8));
  uint8_t* dst = out->data() + at;
  uint64_t acc = 0;
  int bits = 0;  // Pending bits in acc; < 32 between values.
  for (size_t r = 0; r < rows; ++r) {
    const int32_t* row = values + r * stride;
    for (size_t c = 0; c < stride; ++c) {
      acc |= static_cast<uint64_t>(static_cast<uint32_t>(row[c]) -
                                   static_cast<uint32_t>(columns[c].min))
             << bits;
      bits += columns[c].width;
      if (bits >= 32) {
        for (int i = 0; i < 4; ++i) {
          *dst++ = static_cast<uint8_t>(acc >> (8 * i));
        }
        acc >>= 32;
        bits -= 32;
      }
    }
  }
  for (; bits > 0; bits -= 8) {
    *dst++ = static_cast<uint8_t>(acc);
    acc >>= 8;
  }
}

// Telemetry (kHeartbeat) body:
//
//   zigzag send_nanos | zigzag echo_nanos | zigzag echo_recv_nanos
//   | zigzag events_processed | varint updates_sent | varint syncs_sent
//   | varint rounds_seen | varint first_seq | varint event count
//   | count x (zigzag t delta | u8 type | zigzag site | zigzag arg)
void AppendTelemetryBody(const Frame& frame, std::vector<uint8_t>* out) {
  AppendZigzag(frame.hb.send_nanos, out);
  AppendZigzag(frame.hb.echo_nanos, out);
  AppendZigzag(frame.hb.echo_recv_nanos, out);
  AppendZigzag(frame.stats.events_processed, out);
  AppendVarint(frame.stats.updates_sent, out);
  AppendVarint(frame.stats.syncs_sent, out);
  AppendVarint(frame.stats.rounds_seen, out);
  AppendVarint(frame.trace.first_seq, out);
  AppendVarint(frame.trace.events.size(), out);
  int64_t previous = 0;
  for (const TraceEvent& event : frame.trace.events) {
    // Delta-coded timestamps (events are near-sorted, so deltas are small);
    // two's-complement wraparound like bundle counter ids.
    AppendZigzag(static_cast<int64_t>(static_cast<uint64_t>(event.t_nanos) -
                                      static_cast<uint64_t>(previous)),
                 out);
    out->push_back(static_cast<uint8_t>(event.type));
    AppendZigzag(event.site, out);
    AppendZigzag(event.arg, out);
    previous = event.t_nanos;
  }
}

Status DecodeTelemetryBody(ByteReader* reader, Frame* out) {
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&out->hb.send_nanos));
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&out->hb.echo_nanos));
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&out->hb.echo_recv_nanos));
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&out->stats.events_processed));
  if (out->stats.events_processed < 0) {
    return InvalidArgumentError("codec: telemetry events out of range");
  }
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&out->stats.updates_sent));
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&out->stats.syncs_sent));
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&out->stats.rounds_seen));
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&out->trace.first_seq));
  uint64_t count = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&count));
  std::vector<TraceEvent>& events = out->trace.events;
  events.clear();
  events.reserve(SafeReserve(count, reader->remaining(), 4));
  int64_t previous = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TraceEvent event;
    int64_t delta = 0;
    DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&delta));
    previous = static_cast<int64_t>(static_cast<uint64_t>(previous) +
                                    static_cast<uint64_t>(delta));
    event.t_nanos = previous;
    uint8_t type = 0;
    DSGM_RETURN_IF_ERROR(reader->ReadU8(&type));
    if (type > static_cast<uint8_t>(TraceEventType::kAlert)) {
      return InvalidArgumentError("codec: bad trace event type tag");
    }
    event.type = static_cast<TraceEventType>(type);
    int64_t event_site = 0;
    DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&event_site));
    if (event_site < INT32_MIN || event_site > INT32_MAX) {
      return InvalidArgumentError("codec: trace event site out of range");
    }
    event.site = static_cast<int32_t>(event_site);
    DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&event.arg));
    events.push_back(event);
  }
  return Status::Ok();
}

Status DecodeBatchBody(ByteReader* reader, EventBatch* out) {
  int64_t num_events = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&num_events));
  if (num_events < 0 || num_events > INT32_MAX) {
    return InvalidArgumentError("codec: EventBatch num_events out of range");
  }
  out->num_events = static_cast<int32_t>(num_events);
  uint64_t count = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&count));
  out->values.clear();
  if (count == 0) {
    if (num_events != 0) {
      return InvalidArgumentError("codec: EventBatch events without values");
    }
    return Status::Ok();
  }
  // Zero-width columns cost no body bytes, so the byte checks below cannot
  // bound a forged count: cap it before anything is sized by it.
  if (count > kMaxFramePayload) {
    return InvalidArgumentError("codec: EventBatch value count out of range");
  }
  uint64_t stride = 0;
  DSGM_RETURN_IF_ERROR(reader->ReadVarint(&stride));
  // Every column header takes at least two bytes (min, width).
  if (stride == 0 || stride > count || count % stride != 0 ||
      stride > reader->remaining() / 2) {
    return InvalidArgumentError("codec: EventBatch stride out of range");
  }
  // One row per event: a site walks the values num_events rows at a time.
  if (count / stride != static_cast<uint64_t>(num_events)) {
    return InvalidArgumentError("codec: EventBatch rows do not match num_events");
  }
  std::vector<PackedColumn> columns(static_cast<size_t>(stride));
  uint64_t row_bits = 0;
  for (PackedColumn& column : columns) {
    int64_t min = 0;
    DSGM_RETURN_IF_ERROR(reader->ReadZigzag(&min));
    if (min < INT32_MIN || min > INT32_MAX) {
      return InvalidArgumentError("codec: EventBatch column min out of range");
    }
    column.min = static_cast<int32_t>(min);
    DSGM_RETURN_IF_ERROR(reader->ReadU8(&column.width));
    if (column.width > 32) {
      return InvalidArgumentError("codec: EventBatch column width over 32");
    }
    row_bits += column.width;
  }
  const size_t rows = static_cast<size_t>(count / stride);
  const uint64_t body_bytes = (rows * row_bits + 7) / 8;
  if (reader->remaining() != body_bytes) {
    return InvalidArgumentError("codec: EventBatch packed body size mismatch");
  }

  out->values.resize(static_cast<size_t>(count));
  int32_t* dst = out->values.data();
  const uint8_t* src = reader->cursor();
  const uint8_t* const end = src + body_bytes;
  uint64_t acc = 0;
  int bits = 0;  // Unread bits in acc; < 32 before each refill.
  for (size_t r = 0; r < rows; ++r) {
    for (const PackedColumn& column : columns) {
      if (bits < column.width) {
        if (end - src >= 4) {
          acc |= (static_cast<uint64_t>(src[0]) |
                  static_cast<uint64_t>(src[1]) << 8 |
                  static_cast<uint64_t>(src[2]) << 16 |
                  static_cast<uint64_t>(src[3]) << 24)
                 << bits;
          src += 4;
          bits += 32;
        } else {
          // The size check above guarantees the tail holds these bits.
          for (; bits < column.width && src < end; bits += 8) {
            acc |= static_cast<uint64_t>(*src++) << bits;
          }
        }
      }
      const int64_t value =
          column.min +
          static_cast<int64_t>(acc & ((uint64_t{1} << column.width) - 1));
      if (value > INT32_MAX) {
        return InvalidArgumentError("codec: EventBatch value out of range");
      }
      *dst++ = static_cast<int32_t>(value);
      acc >>= column.width;
      bits -= column.width;
    }
  }
  reader->SkipRemaining();
  return Status::Ok();
}

}  // namespace

void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

Frame MakeFrame(UpdateBundle bundle) {
  Frame frame;
  frame.type = FrameType::kUpdateBundle;
  frame.bundle = std::move(bundle);
  return frame;
}

Frame MakeFrame(RoundAdvance advance) {
  Frame frame;
  frame.type = FrameType::kRoundAdvance;
  frame.advance = advance;
  return frame;
}

Frame MakeFrame(EventBatch batch) {
  Frame frame;
  frame.type = FrameType::kEventBatch;
  frame.batch = std::move(batch);
  return frame;
}

Frame MakeChannelClose(FrameType channel) {
  Frame frame;
  frame.type = FrameType::kChannelClose;
  frame.channel = channel;
  return frame;
}

Frame MakeHello(int32_t site) {
  Frame frame;
  frame.type = FrameType::kHello;
  frame.site = site;
  return frame;
}

Frame MakeHeartbeat(const HeartbeatTimestamps& hb,
                    const SiteStatsReport& stats, TraceChunk trace) {
  Frame frame;
  frame.type = FrameType::kHeartbeat;
  frame.hb = hb;
  frame.stats = stats;
  frame.trace = std::move(trace);
  return frame;
}

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  const size_t prefix_at = out->size();
  out->resize(prefix_at + 4);  // Patched below.
  out->push_back(static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case FrameType::kUpdateBundle:
      AppendBundleBody(frame.bundle, out);
      break;
    case FrameType::kRoundAdvance:
      AppendAdvanceBody(frame.advance, out);
      break;
    case FrameType::kEventBatch:
      AppendBatchBody(frame.batch, out);
      break;
    case FrameType::kChannelClose:
      out->push_back(static_cast<uint8_t>(frame.channel));
      break;
    case FrameType::kHello:
      out->push_back(frame.protocol_version);
      AppendZigzag(frame.site, out);
      break;
    case FrameType::kHeartbeat:
      AppendTelemetryBody(frame, out);
      break;
  }
  const size_t payload = out->size() - prefix_at - 4;
  DSGM_CHECK_LE(payload, kMaxFramePayload);
  for (int i = 0; i < 4; ++i) {
    (*out)[prefix_at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload >> (8 * i));
  }
}

Status DecodeFramePayload(const uint8_t* data, size_t size, Frame* out) {
  ByteReader reader(data, size);
  uint8_t type = 0;
  DSGM_RETURN_IF_ERROR(reader.ReadU8(&type));
  if (type < static_cast<uint8_t>(FrameType::kUpdateBundle) ||
      type > static_cast<uint8_t>(FrameType::kHeartbeat)) {
    return InvalidArgumentError("codec: bad frame type tag");
  }
  out->type = static_cast<FrameType>(type);
  switch (out->type) {
    case FrameType::kUpdateBundle:
      DSGM_RETURN_IF_ERROR(DecodeBundleBody(&reader, &out->bundle));
      break;
    case FrameType::kRoundAdvance:
      DSGM_RETURN_IF_ERROR(DecodeAdvanceBody(&reader, &out->advance));
      break;
    case FrameType::kEventBatch:
      DSGM_RETURN_IF_ERROR(DecodeBatchBody(&reader, &out->batch));
      break;
    case FrameType::kChannelClose: {
      uint8_t channel = 0;
      DSGM_RETURN_IF_ERROR(reader.ReadU8(&channel));
      if (channel < static_cast<uint8_t>(FrameType::kUpdateBundle) ||
          channel > static_cast<uint8_t>(FrameType::kEventBatch)) {
        return InvalidArgumentError("codec: bad channel tag in close frame");
      }
      out->channel = static_cast<FrameType>(channel);
      break;
    }
    case FrameType::kHello: {
      DSGM_RETURN_IF_ERROR(reader.ReadU8(&out->protocol_version));
      int64_t site = 0;
      DSGM_RETURN_IF_ERROR(reader.ReadZigzag(&site));
      if (site < INT32_MIN || site > INT32_MAX) {
        return InvalidArgumentError("codec: hello site out of range");
      }
      out->site = static_cast<int32_t>(site);
      // Another version's hello may carry more fields (v6 had a capability
      // varint). Skip them, so the conformance layer reports the version
      // mismatch instead of a decode error.
      if (out->protocol_version != kProtocolVersion) reader.SkipRemaining();
      break;
    }
    case FrameType::kHeartbeat:
      DSGM_RETURN_IF_ERROR(DecodeTelemetryBody(&reader, out));
      break;
  }
  if (!reader.done()) {
    return InvalidArgumentError("codec: trailing bytes after frame payload");
  }
  return Status::Ok();
}

Status DecodeFrame(const uint8_t* data, size_t size, Frame* out, size_t* consumed) {
  if (size < 4) return InvalidArgumentError("codec: truncated length prefix");
  const uint32_t length = DecodeLengthPrefix(data);
  if (length > kMaxFramePayload) {
    return InvalidArgumentError("codec: frame payload exceeds kMaxFramePayload");
  }
  if (size - 4 < length) return InvalidArgumentError("codec: truncated frame payload");
  DSGM_RETURN_IF_ERROR(DecodeFramePayload(data + 4, length, out));
  *consumed = 4 + static_cast<size_t>(length);
  return Status::Ok();
}

}  // namespace dsgm
