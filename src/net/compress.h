// In-tree LZ byte codec for negotiated wire compression.
//
// Final-count bundles are varint-packed but still carry highly repetitive
// residual structure (dense counter ids, counts in the same varint band).
// A tiny LZ77 pass over the encoded payload recovers that redundancy
// without any external dependency. Event batches are not compressed: the
// codec bit-packs them, which is both smaller and cheaper than LZ over a
// byte-per-value encoding.
//
// Format (LZ4-flavored, byte-oriented, no framing of its own):
//
//   sequence := token | [literal-length extensions] | literals
//               | offset_lo offset_hi | [match-length extensions]
//   token    := (literal_nibble << 4) | match_nibble
//
// A nibble of 15 is continued by extension bytes (each 255 adds 255; the
// first byte below 255 terminates). Matches copy `nibble + 4` bytes
// (kMinMatch = 4) from `offset` bytes back (1..65535, little-endian). The
// final sequence is literals-only: the block simply ends after its
// literals.
//
// The decompressor is the untrusted surface: it takes the DECLARED
// decompressed size from the frame header, never trusts it (the caller caps
// it at kMaxFramePayload), and fails with a Status on any truncation,
// out-of-window offset, or size mismatch. It never reads or writes outside
// its buffers — fuzzed directly by fuzz_compress_decode and, paired with
// the compressor, by fuzz_compress_roundtrip.

#ifndef DSGM_NET_COMPRESS_H_
#define DSGM_NET_COMPRESS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dsgm {

/// Shortest match the compressor emits / the decompressor expands.
inline constexpr size_t kLzMinMatch = 4;

/// Worst-case compressed size for `n` input bytes (all-literal blocks pay
/// one token plus one extension byte per 255 literals).
constexpr size_t LzCompressBound(size_t n) { return n + n / 255 + 16; }

/// Appends the compressed form of `in[0..in_size)` to `out`. Always
/// succeeds; the output may be larger than the input (callers compare sizes
/// and fall back to the raw encoding — see AppendFrameMaybeCompressed).
void LzCompress(const uint8_t* in, size_t in_size, std::vector<uint8_t>* out);

/// Appends exactly `expected_size` decompressed bytes to `out`, or returns
/// an InvalidArgument Status and leaves `out`'s original contents intact
/// prefix-wise (bytes may have been appended; callers treat any error as
/// fatal for the buffer). `expected_size` is the remote peer's claim — the
/// caller must cap it (kMaxFramePayload) before calling.
Status LzDecompress(const uint8_t* in, size_t in_size, size_t expected_size,
                    std::vector<uint8_t>* out);

/// Process-wide switch consulted by hello construction (capability
/// advertisement) and by the eligible-frame send paths. On by default;
/// benches and tests turn it off to measure the uncompressed baseline and
/// to simulate capability-less peers. Safe to flip at any time (atomic);
/// in-flight connections that already negotiated compression simply stop
/// compressing new frames.
void SetWireCompressionEnabled(bool enabled);
bool WireCompressionEnabled();

}  // namespace dsgm

#endif  // DSGM_NET_COMPRESS_H_
