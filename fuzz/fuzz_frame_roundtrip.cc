// Structure-aware round-trip harness: the input is a decision stream that
// builds a structurally VALID frame of any of the six wire types, which
// is then encoded and decoded back. Unlike fuzz_codec_decode (which mostly
// explores the decoder's reject paths), every iteration here exercises the
// encoder and the decoder's accept path with hostile field values —
// INT32_MIN sites, NaN probabilities, maximal counter deltas, trace-event
// timestamp deltas that wrap int64 — so the round-trip oracle bites on
// every single run.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "fuzz_util.h"
#include "net/codec.h"
#include "net/wire.h"

namespace dsgm {
namespace {

using fuzz::ByteStream;

// Bounded so one iteration stays cheap and AppendFrame's kMaxFramePayload
// CHECK cannot trip on a legitimately built frame.
constexpr size_t kMaxReports = 4096;
constexpr size_t kMaxValues = 8192;
constexpr size_t kMaxTraceEvents = 4096;

Frame BuildArbitraryValidFrame(ByteStream* stream) {
  switch (stream->NextByte() % 6) {
    case 0: {
      UpdateBundle bundle;
      bundle.kind = static_cast<UpdateBundle::Kind>(stream->NextByte() % 4);
      bundle.site = stream->NextI32();
      bundle.round = stream->NextI32();
      const size_t reports = stream->NextU32() % (kMaxReports + 1);
      bundle.reports.reserve(reports);
      for (size_t i = 0; i < reports; ++i) {
        bundle.reports.push_back(
            CounterReport{stream->NextI64(), stream->NextU32()});
      }
      return MakeFrame(std::move(bundle));
    }
    case 1: {
      RoundAdvance advance;
      advance.counter = stream->NextI64();
      advance.round = stream->NextI32();
      advance.probability = stream->NextFloat();  // NaN/inf included.
      return MakeFrame(advance);
    }
    case 2: {
      // Encoder contract: num_events whole rows of `stride` values.
      EventBatch batch;
      const size_t stride = 1 + stream->NextByte() % 64;
      batch.num_events =
          static_cast<int32_t>(stream->NextU32() % (kMaxValues / stride + 1));
      const size_t values = static_cast<size_t>(batch.num_events) * stride;
      batch.values.reserve(values);
      for (size_t i = 0; i < values; ++i) {
        batch.values.push_back(stream->NextI32());
      }
      return MakeFrame(std::move(batch));
    }
    case 3:
      // The codec only round-trips the three data-channel tags.
      return MakeChannelClose(
          static_cast<FrameType>(1 + stream->NextByte() % 3));
    case 4: {
      Frame hello = MakeHello(stream->NextI32());
      hello.protocol_version = stream->NextByte();  // Codec carries any rev.
      return hello;
    }
    default: {
      // Telemetry carries three clock samples; arbitrary int64 values
      // (including the zeros of the "no echo yet" state) must round-trip,
      // as must the stats and the trace drain.
      HeartbeatTimestamps hb;
      hb.send_nanos = stream->NextI64();
      hb.echo_nanos = stream->NextI64();
      hb.echo_recv_nanos = stream->NextI64();
      SiteStatsReport stats;
      stats.events_processed = stream->NextI64() & INT64_MAX;  // Contract: >= 0.
      stats.updates_sent = stream->NextU64();
      stats.syncs_sent = stream->NextU64();
      stats.rounds_seen = stream->NextU64();
      TraceChunk trace;
      trace.first_seq = stream->NextU64();
      const size_t events = stream->NextU32() % (kMaxTraceEvents + 1);
      trace.events.reserve(events);
      for (size_t i = 0; i < events; ++i) {
        TraceEvent event;
        event.t_nanos = stream->NextI64();  // Deltas wrap unsigned: any pair legal.
        // Only valid type tags (0..kAlert) round-trip; the decoder rejects
        // the rest by design (fuzz_codec_decode owns that reject path).
        event.type = static_cast<TraceEventType>(
            stream->NextByte() %
            (static_cast<uint8_t>(TraceEventType::kAlert) + 1));
        event.site = stream->NextI32();
        event.arg = stream->NextI64();
        trace.events.push_back(event);
      }
      return MakeHeartbeat(hb, stats, std::move(trace));
    }
  }
}

}  // namespace
}  // namespace dsgm

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dsgm;
  fuzz::ByteStream stream(data, size);
  const Frame original = BuildArbitraryValidFrame(&stream);

  std::vector<uint8_t> bytes;
  AppendFrame(original, &bytes);

  Frame decoded;
  size_t consumed = 0;
  DSGM_CHECK(DecodeFrame(bytes.data(), bytes.size(), &decoded, &consumed).ok())
      << "decoder rejected a frame the encoder produced";
  DSGM_CHECK_EQ(consumed, bytes.size());
  DSGM_CHECK(fuzz::FramesEquivalent(original, decoded))
      << "frame changed across encode/decode";

  // The payload-only entry point must agree with the framed one.
  Frame payload_decoded;
  DSGM_CHECK(
      DecodeFramePayload(bytes.data() + 4, bytes.size() - 4, &payload_decoded)
          .ok());
  DSGM_CHECK(fuzz::FramesEquivalent(original, payload_decoded));
  return 0;
}
