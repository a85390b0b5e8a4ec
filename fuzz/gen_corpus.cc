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
  stats.events_processed = 100000;
  stats.updates_sent = 4096;
  stats.syncs_sent = 17;
  stats.rounds_seen = 17;
  HeartbeatTimestamps hb;
  hb.send_nanos = 1'000'000'000;
  hb.echo_nanos = 999'000'000;
  hb.echo_recv_nanos = 999'500'000;
  TraceChunk trace;
  trace.first_seq = 4096;
  trace.events.push_back(TraceEvent{1'000'000, TraceEventType::kHeartbeat, 1, 7});
  trace.events.push_back(TraceEvent{900'000, TraceEventType::kSyncMessage, -1, -3});
  trace.events.push_back(TraceEvent{1'100'000, TraceEventType::kAlert, 0, 2});
  return {MakeFrame(std::move(bundle)),
          MakeFrame(advance),
          MakeFrame(std::move(batch)),
          MakeChannelClose(FrameType::kUpdateBundle),
          MakeHello(3),
          MakeHeartbeat(hb, stats, std::move(trace))};
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
  for (uint8_t type = 0; type < 6; ++type) {
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

  // Legal site->coordinator life cycle: telemetry flows before and after
  // the update-lane close.
  SiteStatsReport stats;
  stats.events_processed = 64;
  TraceChunk trace;
  trace.events.push_back(TraceEvent{500, TraceEventType::kHeartbeat, 0, 1});
  WriteSeed(dir, "legal-s2c.bin",
            stream(0, {MakeHello(0), MakeFrame(bundle), MakeHeartbeat({}),
                       MakeHeartbeat({}, stats, trace), MakeFrame(bundle),
                       MakeChannelClose(FrameType::kUpdateBundle),
                       MakeHeartbeat({}, stats)}));
  // Legal coordinator->site life cycle (straggler events while draining).
  // The site's machine starts kActive: the coordinator sends no hello.
  WriteSeed(dir, "legal-c2s.bin",
            stream(1, {MakeFrame(batch), MakeFrame(advance), MakeHeartbeat({}),
                       MakeChannelClose(FrameType::kEventBatch),
                       MakeChannelClose(FrameType::kRoundAdvance),
                       MakeFrame(batch)}));
  // Violations the spec table must catch.
  WriteSeed(dir, "viol-data-before-hello.bin", stream(0, {MakeFrame(bundle)}));
  WriteSeed(dir, "viol-duplicate-hello.bin",
            stream(0, {MakeHello(0), MakeHello(0)}));
  WriteSeed(dir, "viol-update-after-close.bin",
            stream(0, {MakeHello(0),
                       MakeChannelClose(FrameType::kUpdateBundle),
                       MakeFrame(bundle)}));
  WriteSeed(dir, "viol-wrong-direction.bin",
            stream(0, {MakeHello(0), MakeFrame(advance)}));
  WriteSeed(dir, "viol-coordinator-hello.bin", stream(1, {MakeHello(0)}));
  // Version-mismatched hello.
  {
    Frame old_hello = MakeHello(0);
    old_hello.protocol_version = kProtocolVersion - 1;
    WriteSeed(dir, "viol-version-mismatch.bin",
              stream(0, {old_hello, MakeHeartbeat({})}));
    // A v6 hello, byte for byte: version 6, site 0, and the trailing
    // capability varint v7 dropped.
    WriteSeed(dir, "viol-v6-hello.bin",
              {0, 4, 0, 0, 0, static_cast<uint8_t>(FrameType::kHello), 6, 0, 1});
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
  // v7's stats report (tag 7: zigzag site, then the stats) is a bad tag.
  {
    std::vector<uint8_t> bytes = stream(0, {MakeHello(0)});
    bytes.insert(bytes.end(), {7, 0, 0, 0, 7, 0, 2, 1, 0, 0, 1});
    WriteSeed(dir, "malformed-v7-stats-tag.bin", bytes);
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
  stats.events_processed = 1;
  EventBatch batch;
  batch.num_events = 1;
  batch.values = {0, 1};
  RoundAdvance advance;
  advance.round = 1;

  // Legal post-hello traffic, both directions.
  WriteSeed(dir, "legal-s2c.bin",
            stream(0, {MakeFrame(bundle), MakeHeartbeat({}, stats),
                       MakeFrame(bundle),
                       MakeChannelClose(FrameType::kUpdateBundle),
                       MakeHeartbeat({}, stats)}));
  WriteSeed(dir, "legal-c2s.bin",
            stream(1, {MakeFrame(batch), MakeFrame(advance),
                       MakeChannelClose(FrameType::kEventBatch),
                       MakeChannelClose(FrameType::kRoundAdvance)}));
  // Direction violation: a coordinator-only frame on the s2c half.
  WriteSeed(dir, "viol-wrong-direction.bin", stream(0, {MakeFrame(advance)}));
  // The coordinator sends no hello: one on a running site connection is a
  // violation.
  WriteSeed(dir, "viol-coordinator-hello.bin",
            stream(1, {MakeFrame(batch), MakeHello(0)}));
  // Malformed bytes after a legal prefix: bad tag, then oversized prefix.
  {
    std::vector<uint8_t> bytes = stream(0, {MakeFrame(bundle)});
    bytes.insert(bytes.end(), {5, 0, 0, 0, 99, 1, 2, 3, 4});
    WriteSeed(dir, "malformed-bad-tag.bin", bytes);
  }
  {
    std::vector<uint8_t> bytes = stream(0, {MakeHeartbeat({})});
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
