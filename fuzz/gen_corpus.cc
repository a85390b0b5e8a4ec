// Regenerates the committed seed corpora under fuzz/corpus/.
//
//   fuzz_gen_corpus [output_root]   (default: ./corpus)
//
// The seeds are deterministic, reproducing the exact generator recipes of
// codec_test.cc's RandomizedFuzzNeverCrashes (Rng(777) random buffers) and
// BitflipFuzzOnValidFrames (Rng(31337) flips on a pristine sync bundle) —
// the gtest loops stay as cheap always-on regression sweeps, while the same
// inputs seed the coverage-guided harnesses here — plus one valid encoding
// of every frame type, truncation ladders, and legal/violating/ malformed
// protocol streams for the stateful harness.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/codec.h"
#include "net/compress.h"
#include "net/protocol_spec.h"
#include "net/wire.h"

namespace dsgm {
namespace {

namespace fs = std::filesystem;

void WriteSeed(const fs::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  DSGM_CHECK(out.good()) << "cannot write" << (dir / name).string();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<uint8_t> Encode(const Frame& frame) {
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  return bytes;
}

/// Appends `frame` inside a kCompressed envelope whether or not it is
/// eligible — the bytes a peer that compresses event batches would send.
void AppendWrapped(const Frame& frame, std::vector<uint8_t>* out) {
  const std::vector<uint8_t> raw = Encode(frame);
  std::vector<uint8_t> payload = {static_cast<uint8_t>(FrameType::kCompressed)};
  AppendVarint(raw.size() - 4, &payload);
  LzCompress(raw.data() + 4, raw.size() - 4, &payload);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(payload.size() >> (8 * i)));
  }
  out->insert(out->end(), payload.begin(), payload.end());
}

/// A large event batch LZ would shrink, for the envelope seeds.
EventBatch RepetitiveBatch() {
  EventBatch big;
  big.num_events = 512;
  big.values.assign(2048, 1);
  return big;
}

/// One representative valid frame per wire type, with non-trivial fields.
std::vector<Frame> RepresentativeFrames() {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 2;
  bundle.round = 4;
  for (int64_t c = 0; c < 50; ++c) {
    bundle.reports.push_back(CounterReport{c * 3, static_cast<uint32_t>(c)});
  }
  RoundAdvance advance;
  advance.counter = 123456789;
  advance.round = 7;
  advance.probability = 0.25f;
  EventBatch batch;
  batch.num_events = 3;
  batch.values = {0, 1, 2, 1, 0, 2, 2, 1, 0};
  SiteStatsReport stats;
  stats.site = 1;
  stats.events_processed = 100000;
  stats.updates_sent = 4096;
  stats.syncs_sent = 17;
  stats.rounds_seen = 17;
  stats.heartbeats_sent = 250;
  HeartbeatTimestamps hb;
  hb.send_nanos = 1'000'000'000;
  hb.echo_nanos = 999'000'000;
  hb.echo_recv_nanos = 999'500'000;
  TraceChunk trace;
  trace.site = 1;
  trace.first_seq = 4096;
  trace.events.push_back(TraceEvent{1'000'000, TraceEventType::kHeartbeat, 1, 7});
  trace.events.push_back(TraceEvent{900'000, TraceEventType::kSyncMessage, -1, -3});
  trace.events.push_back(TraceEvent{1'100'000, TraceEventType::kAlert, 0, 2});
  return {MakeFrame(std::move(bundle)),
          MakeFrame(advance),
          MakeFrame(std::move(batch)),
          MakeChannelClose(FrameType::kUpdateBundle),
          MakeHello(3),
          MakeHeartbeat(3, hb),
          MakeStatsReport(stats),
          MakeTraceChunk(std::move(trace))};
}

void GenCodecDecode(const fs::path& dir) {
  const std::vector<Frame> frames = RepresentativeFrames();
  for (size_t i = 0; i < frames.size(); ++i) {
    WriteSeed(dir, "valid-type" + std::to_string(i + 1) + ".bin",
              Encode(frames[i]));
  }
  // Truncation ladder on the richest frame (the sync bundle).
  const std::vector<uint8_t> pristine = Encode(frames[0]);
  for (size_t keep : {size_t{3}, size_t{4}, size_t{5}, size_t{16},
                      pristine.size() / 2, pristine.size() - 1}) {
    WriteSeed(dir, "trunc-" + std::to_string(keep) + ".bin",
              std::vector<uint8_t>(pristine.begin(),
                                   pristine.begin() +
                                       static_cast<std::ptrdiff_t>(keep)));
  }
  // codec_test.cc RandomizedFuzzNeverCrashes recipe: Rng(777), 2000 random
  // buffers of length < 64. Committing every 50th keeps the corpus small
  // while staying bit-identical to the gtest sweep.
  {
    Rng rng(777);
    std::vector<uint8_t> buffer;
    for (int iteration = 0; iteration < 2000; ++iteration) {
      buffer.clear();
      const size_t size = rng.NextBounded(64);
      for (size_t i = 0; i < size; ++i) {
        buffer.push_back(static_cast<uint8_t>(rng.Next()));
      }
      if (iteration % 50 == 0) {
        WriteSeed(dir, "rand777-" + std::to_string(iteration) + ".bin",
                  buffer);
      }
    }
  }
  // codec_test.cc BitflipFuzzOnValidFrames recipe: Rng(31337), 1-4 flips on
  // the pristine sync bundle. First 40 of the 2000 iterations.
  {
    Rng rng(31337);
    for (int iteration = 0; iteration < 40; ++iteration) {
      std::vector<uint8_t> corrupted = pristine;
      const size_t flips = 1 + rng.NextBounded(4);
      for (size_t f = 0; f < flips; ++f) {
        const size_t at = rng.NextBounded(corrupted.size());
        corrupted[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      WriteSeed(dir, "flip31337-" + std::to_string(iteration) + ".bin",
                corrupted);
    }
  }
}

void GenFrameRoundtrip(const fs::path& dir) {
  // The round-trip harness reads its input as a decision stream (first byte
  // selects the frame type). One directed seed per type...
  for (uint8_t type = 0; type < 8; ++type) {
    std::vector<uint8_t> seed = {type};
    for (int i = 0; i < 48; ++i) {
      seed.push_back(static_cast<uint8_t>((i * 37 + type) & 0xff));
    }
    WriteSeed(dir, "type" + std::to_string(type) + ".bin", seed);
  }
  // ...plus random decision streams of varied length.
  Rng rng(4242);
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> seed;
    const size_t size = 1 + rng.NextBounded(256);
    for (size_t b = 0; b < size; ++b) {
      seed.push_back(static_cast<uint8_t>(rng.Next()));
    }
    WriteSeed(dir, "rand4242-" + std::to_string(i) + ".bin", seed);
  }
}

void GenProtocolStream(const fs::path& dir) {
  // First byte selects direction: even = site->coordinator (coordinator
  // receiving), odd = coordinator->site.
  const auto stream = [](uint8_t direction,
                         const std::vector<Frame>& frames) {
    std::vector<uint8_t> bytes = {direction};
    for (const Frame& frame : frames) AppendFrame(frame, &bytes);
    return bytes;
  };
  UpdateBundle bundle;
  bundle.site = 0;
  bundle.reports.push_back(CounterReport{7, 1});
  EventBatch batch;
  batch.num_events = 1;
  batch.values = {0, 1};
  RoundAdvance advance;

  // Legal site->coordinator life cycle. Payload site ids must match the
  // hello's: the conformance machine binds the connection to its hello id
  // and rejects forged kStatsReport/kTraceChunk claims.
  SiteStatsReport stats;
  stats.site = 0;
  TraceChunk trace;
  trace.site = 0;
  trace.events.push_back(TraceEvent{500, TraceEventType::kHeartbeat, 0, 1});
  WriteSeed(dir, "legal-s2c.bin",
            stream(0, {MakeHello(0), MakeFrame(bundle), MakeHeartbeat(0),
                       MakeStatsReport(stats), MakeTraceChunk(trace),
                       MakeFrame(bundle),
                       MakeChannelClose(FrameType::kUpdateBundle),
                       MakeHeartbeat(0)}));
  // Legal coordinator->site life cycle (straggler events while draining).
  WriteSeed(dir, "legal-c2s.bin",
            stream(1, {MakeHello(0), MakeFrame(batch), MakeFrame(advance),
                       MakeChannelClose(FrameType::kEventBatch),
                       MakeChannelClose(FrameType::kRoundAdvance),
                       MakeFrame(batch)}));
  // Violations the spec table must catch.
  WriteSeed(dir, "viol-data-before-hello.bin", stream(0, {MakeFrame(bundle)}));
  WriteSeed(dir, "viol-duplicate-hello.bin",
            stream(0, {MakeHello(0), MakeHello(0)}));
  WriteSeed(dir, "viol-stats-after-close.bin",
            stream(0, {MakeHello(0),
                       MakeChannelClose(FrameType::kUpdateBundle),
                       MakeStatsReport(SiteStatsReport{})}));
  WriteSeed(dir, "viol-wrong-direction.bin",
            stream(0, {MakeHello(0), MakeFrame(advance)}));
  // Forged observability payloads: site id claims that contradict the
  // connection's bound hello id.
  {
    SiteStatsReport forged_stats;
    forged_stats.site = 5;
    WriteSeed(dir, "viol-forged-stats.bin",
              stream(0, {MakeHello(0), MakeStatsReport(forged_stats)}));
    TraceChunk forged_trace;
    forged_trace.site = 5;
    WriteSeed(dir, "viol-forged-trace.bin",
              stream(0, {MakeHello(0), MakeTraceChunk(forged_trace)}));
  }
  // An event batch in a compression envelope: the coordinator has no
  // eligible cargo, so a wrapped frame from it is a violation.
  {
    std::vector<uint8_t> bytes = stream(1, {MakeHello(0), MakeFrame(batch)});
    AppendWrapped(MakeFrame(RepetitiveBatch()), &bytes);
    WriteSeed(dir, "viol-compressed-c2s.bin", bytes);
  }
  // Version-mismatched hello.
  {
    Frame old_hello = MakeHello(0);
    old_hello.protocol_version = kProtocolVersion - 1;
    WriteSeed(dir, "viol-version-mismatch.bin",
              stream(0, {old_hello, MakeHeartbeat(0)}));
  }
  // Malformed wire bytes after a legal prefix.
  {
    std::vector<uint8_t> bytes = stream(0, {MakeHello(0)});
    const std::vector<uint8_t> junk = {5, 0, 0, 0, 99, 1, 2, 3, 4};
    bytes.insert(bytes.end(), junk.begin(), junk.end());
    WriteSeed(dir, "malformed-bad-tag.bin", bytes);
  }
  {
    std::vector<uint8_t> bytes = stream(0, {MakeHello(0)});
    bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xff});
    WriteSeed(dir, "malformed-oversized-prefix.bin", bytes);
  }
}

/// Raw payload textures for the compressor harnesses: an encoded
/// final-count bundle (the one frame kind the wire compresses: dense ids,
/// counts in one varint band), a pure run, interleaved repeats, and
/// incompressible noise.
std::vector<std::vector<uint8_t>> CompressiblePayloads() {
  std::vector<std::vector<uint8_t>> payloads;
  UpdateBundle finals;
  finals.kind = UpdateBundle::Kind::kFinalCounts;
  finals.site = 1;
  for (int64_t c = 0; c < 256; ++c) {
    finals.reports.push_back(
        CounterReport{c, 40000 + static_cast<uint32_t>(c % 3)});
  }
  payloads.push_back(Encode(MakeFrame(std::move(finals))));
  payloads.push_back(std::vector<uint8_t>(512, 0x61));
  {
    std::vector<uint8_t> interleaved;
    for (int i = 0; i < 300; ++i) {
      const char* word = (i % 2) ? "alarm" : "sync!";
      interleaved.insert(interleaved.end(), word, word + 5);
    }
    payloads.push_back(std::move(interleaved));
  }
  {
    Rng rng(90210);
    std::vector<uint8_t> noise;
    for (int i = 0; i < 256; ++i) {
      noise.push_back(static_cast<uint8_t>(rng.Next()));
    }
    payloads.push_back(std::move(noise));
  }
  payloads.push_back({});
  payloads.push_back({'x', 'y', 'z'});
  return payloads;
}

void GenCompressRoundtrip(const fs::path& dir) {
  // The round-trip harness takes raw bytes directly.
  const auto payloads = CompressiblePayloads();
  for (size_t i = 0; i < payloads.size(); ++i) {
    WriteSeed(dir, "payload-" + std::to_string(i) + ".bin", payloads[i]);
  }
}

void GenCompressDecode(const fs::path& dir) {
  // The decode harness reads a 2-byte little-endian declared size, then the
  // LZ block. Valid seeds (honest size + honest block) give coverage deep
  // inside the decoder; the fuzzer mutates them into the adversarial cases.
  const auto pack = [](const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> seed = {
        static_cast<uint8_t>(payload.size() & 0xff),
        static_cast<uint8_t>((payload.size() >> 8) & 0xff)};
    LzCompress(payload.data(), payload.size(), &seed);
    return seed;
  };
  const auto payloads = CompressiblePayloads();
  for (size_t i = 0; i < payloads.size(); ++i) {
    WriteSeed(dir, "valid-" + std::to_string(i) + ".bin", pack(payloads[i]));
  }
  // Dishonest declared size on an otherwise-valid block.
  {
    std::vector<uint8_t> lying = pack(payloads[1]);
    lying[0] = 0x10;
    lying[1] = 0x00;
    WriteSeed(dir, "wrong-declared-size.bin", lying);
  }
  // Truncation ladder on the richest valid block.
  {
    const std::vector<uint8_t> whole = pack(payloads[0]);
    for (size_t keep : {size_t{3}, size_t{8}, whole.size() / 2,
                        whole.size() - 1}) {
      WriteSeed(dir, "trunc-" + std::to_string(keep) + ".bin",
                std::vector<uint8_t>(whole.begin(),
                                     whole.begin() +
                                         static_cast<std::ptrdiff_t>(keep)));
    }
  }
  // Directed adversarial shapes from compress_test.cc: zero offset,
  // out-of-window offset, and a length-extension 255-run bomb.
  WriteSeed(dir, "zero-offset.bin",
            {0x08, 0x00, 0x41, 'a', 'b', 'c', 'd', 0x00, 0x00});
  WriteSeed(dir, "oow-offset.bin",
            {0x08, 0x00, 0x41, 'a', 'b', 'c', 'd', 0x05, 0x00});
  {
    std::vector<uint8_t> bomb = {0xff, 0xff, 0xf0};
    bomb.insert(bomb.end(), 64, 0xff);
    WriteSeed(dir, "extension-bomb.bin", bomb);
  }
}

void GenReactorStream(const fs::path& dir) {
  // Byte 0: bit 0 = receive direction; the rest is the wire stream. The connection arrives hello-paired
  // (conformance starts kActive), so streams begin with data frames.
  const auto stream = [](uint8_t head, const std::vector<Frame>& frames) {
    std::vector<uint8_t> bytes = {head};
    for (const Frame& frame : frames) AppendFrame(frame, &bytes);
    return bytes;
  };
  UpdateBundle bundle;
  bundle.site = 0;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.round = 1;
  bundle.reports.push_back(CounterReport{7, 1});
  SiteStatsReport stats;
  stats.site = 0;
  EventBatch batch;
  batch.num_events = 1;
  batch.values = {0, 1};
  RoundAdvance advance;
  advance.round = 1;

  // Legal post-hello traffic, both directions.
  WriteSeed(dir, "legal-s2c.bin",
            stream(0, {MakeFrame(bundle), MakeHeartbeat(0),
                       MakeStatsReport(stats), MakeFrame(bundle),
                       MakeChannelClose(FrameType::kUpdateBundle)}));
  WriteSeed(dir, "legal-c2s.bin",
            stream(1, {MakeFrame(batch), MakeFrame(advance),
                       MakeChannelClose(FrameType::kEventBatch),
                       MakeChannelClose(FrameType::kRoundAdvance)}));
  // A compressed envelope mid-stream from the coordinator, between raw
  // frames: it has no eligible cargo, so the reactor must drop the
  // connection cleanly.
  {
    std::vector<uint8_t> bytes = stream(1, {MakeFrame(batch)});
    AppendWrapped(MakeFrame(RepetitiveBatch()), &bytes);
    AppendFrame(MakeFrame(advance), &bytes);
    WriteSeed(dir, "viol-compressed-c2s.bin", bytes);
    // A wrapped final-count bundle after the site closed its update lane:
    // data past the terminal close is a model-checked violation, wrapped
    // or not, and the reactor must turn it into a clean drop.
    UpdateBundle finals;
    finals.site = 0;
    finals.kind = UpdateBundle::Kind::kFinalCounts;
    for (int64_t c = 0; c < 512; ++c) {
      finals.reports.push_back(CounterReport{c, 1});
    }
    bytes = stream(0, {MakeChannelClose(FrameType::kUpdateBundle)});
    AppendFrameMaybeCompressed(MakeFrame(std::move(finals)), &bytes);
    WriteSeed(dir, "viol-compressed-after-close.bin", bytes);
  }
  // Direction violation: a coordinator-only frame on the s2c half.
  WriteSeed(dir, "viol-wrong-direction.bin", stream(0, {MakeFrame(advance)}));
  // Malformed bytes after a legal prefix: bad tag, then oversized prefix.
  {
    std::vector<uint8_t> bytes = stream(0, {MakeFrame(bundle)});
    bytes.insert(bytes.end(), {5, 0, 0, 0, 99, 1, 2, 3, 4});
    WriteSeed(dir, "malformed-bad-tag.bin", bytes);
  }
  {
    std::vector<uint8_t> bytes = stream(0, {MakeHeartbeat(0)});
    bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xff});
    WriteSeed(dir, "malformed-oversized-prefix.bin", bytes);
  }
  // Partial frame then EOF: the reassembly buffer ends mid-frame.
  {
    std::vector<uint8_t> whole = stream(0, {MakeFrame(bundle)});
    WriteSeed(dir, "trunc-mid-frame.bin",
              std::vector<uint8_t>(whole.begin(), whole.end() - 2));
  }
}

int Run(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path("corpus");
  const struct {
    const char* name;
    void (*generate)(const fs::path&);
  } kCorpora[] = {{"codec_decode", GenCodecDecode},
                  {"frame_roundtrip", GenFrameRoundtrip},
                  {"protocol_stream", GenProtocolStream},
                  {"compress_roundtrip", GenCompressRoundtrip},
                  {"compress_decode", GenCompressDecode},
                  {"reactor_stream", GenReactorStream}};
  for (const auto& corpus : kCorpora) {
    const fs::path dir = root / corpus.name;
    fs::create_directories(dir);
    corpus.generate(dir);
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      count += entry.is_regular_file() ? 1 : 0;
    }
    std::printf("%-16s %zu seeds -> %s\n", corpus.name, count,
                dir.string().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Run(argc, argv); }
