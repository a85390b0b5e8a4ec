// Reactor reassembly harness: arbitrary bytes arrive at a REAL
// ReactorConnection over a socketpair, in ragged chunks, so the fuzzer
// exercises the loop-thread parse path itself — read_buffer_ growth,
// parse_offset_ resumption, pending-frame redelivery under inbox
// backpressure, conformance violations and the EOF/error EndRead paths —
// not a model of it. fuzz_protocol_stream checks the spec table; this one
// checks the transport that consults it, with the sanitizers watching.
//
// Input format: byte 0 picks the receive direction (bit 0) and the chunk
// phase; the rest is the stream.
//
// The oracle is memory safety plus clean teardown. Liveness is a backstop
// deadline only: popping the inboxes frees space, which resumes a paused
// read, so a full inbox cannot wedge the parser forever.

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/check.h"
#include "net/protocol_spec.h"
#include "net/reactor.h"
#include "net/reactor_transport.h"
#include "net/tcp_socket.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dsgm;
  if (size == 0) return 0;
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;

  Reactor reactor;
  reactor.Start();

  std::atomic<bool> read_end{false};
  ReactorConnection::Options options;
  options.receive_direction = (data[0] & 1)
                                  ? ProtocolDirection::kCoordinatorToSite
                                  : ProtocolDirection::kSiteToCoordinator;
  options.on_read_end = [&read_end] {
    read_end.store(true, std::memory_order_release);
  };
  ReactorConnection connection(&reactor, TcpSocket(fds[0]), /*site=*/0,
                               options);
  connection.Start();

  // Feed the stream in Fibonacci-ish chunks (same scheme as
  // fuzz_protocol_stream) so every frame boundary lands mid-chunk
  // somewhere. A send error just means the connection already dropped the
  // peer (conformance violation) — that is a valid outcome, keep going.
  TcpSocket peer(fds[1]);
  static constexpr size_t kChunks[] = {1, 2, 3, 5, 8, 13, 21, 34};
  size_t offset = 1;
  size_t chunk_index = data[0] % 8;
  while (offset < size) {
    size_t chunk = kChunks[chunk_index];
    chunk_index = (chunk_index + 1) % 8;
    if (chunk > size - offset) chunk = size - offset;
    if (!peer.SendAll(data + offset, chunk).ok()) break;
    offset += chunk;
  }
  peer.ShutdownBoth();

  std::vector<EventBatch> events;
  std::vector<RoundAdvance> advances;
  std::vector<UpdateBundle> bundles;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!read_end.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    size_t drained = 0;
    events.clear();
    advances.clear();
    bundles.clear();
    drained += connection.events()->TryPopBatch(&events, 64);
    drained += connection.commands()->TryPopBatch(&advances, 64);
    drained += connection.updates()->TryPopBatch(&bundles, 64);
    if (drained == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  DSGM_CHECK(read_end.load(std::memory_order_acquire))
      << "read side neither finished nor failed within the backstop";

  // Owner teardown contract: stop the reactor FIRST, then shut the
  // connection down single-threaded.
  reactor.Stop();
  connection.ShutdownFromOwner();
  return 0;
}
