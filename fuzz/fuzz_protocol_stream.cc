// Stateful protocol-stream harness: arbitrary bytes are fed — in ragged
// chunks, to exercise reassembly — into a ProtocolStreamChecker, the same
// spec-table validator the transports consult. Invariants checked per run:
// Append never crashes, an error is sticky (a stream never "un-violates"),
// the accepted-frame count is monotonic, and a violation leaves the state
// machine in kClosed.
//
// Input format: byte 0 selects the receive direction; the rest is the wire
// stream. Each direction's machine starts where a real connection's does:
// a coordinator's awaiting the site's hello, a site's kActive.

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "net/protocol_spec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace dsgm;
  if (size == 0) return 0;
  const ProtocolDirection direction =
      (data[0] & 1) ? ProtocolDirection::kCoordinatorToSite
                    : ProtocolDirection::kSiteToCoordinator;
  ProtocolStreamChecker checker(direction);

  // Fibonacci-ish chunk sizes: resumption across every buffer boundary
  // without burning input bytes on chunking decisions.
  static constexpr size_t kChunks[] = {1, 2, 3, 5, 8, 13, 21, 34};
  size_t offset = 1;
  size_t chunk_index = data[0] % 8;
  bool failed = false;
  uint64_t accepted_before = 0;
  while (offset < size) {
    size_t chunk = kChunks[chunk_index];
    chunk_index = (chunk_index + 1) % 8;
    if (chunk > size - offset) chunk = size - offset;
    const Status status = checker.Append(data + offset, chunk);
    offset += chunk;

    DSGM_CHECK_GE(checker.frames_accepted(), accepted_before)
        << "accepted-frame count went backwards";
    accepted_before = checker.frames_accepted();
    if (failed) {
      // Sticky: once a stream is condemned, nothing redeems it.
      DSGM_CHECK(!status.ok()) << "stream checker forgot a violation";
    }
    if (!status.ok()) {
      failed = true;
      DSGM_CHECK(checker.conformance().state() == ProtocolState::kClosed)
          << "violation left the state machine open";
      DSGM_CHECK_GE(checker.conformance().violations(), uint64_t{1});
    }
  }
  return 0;
}
