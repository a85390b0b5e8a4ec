// Shared helpers for the dsgm fuzz harnesses.
//
// ByteStream turns the fuzzer's raw input into a decision stream for the
// structure-aware harnesses (reads return zeros once the input is
// exhausted, so every prefix of an input is itself a valid input — the
// property libFuzzer's mutator exploits). FramesEquivalent is the bit-exact
// structural equality the round-trip assertions need: wire.h's operator==
// is NaN-hostile on RoundAdvance::probability, and a fuzzer WILL synthesize
// NaN float bits.

#ifndef DSGM_FUZZ_FUZZ_UTIL_H_
#define DSGM_FUZZ_FUZZ_UTIL_H_

#include <cstdint>
#include <cstring>

#include "net/codec.h"

namespace dsgm {
namespace fuzz {

/// Sequential reader over the fuzzer input. Never fails: reads past the end
/// return zero, so harness control flow depends only on bytes that exist.
class ByteStream {
 public:
  ByteStream(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool empty() const { return offset_ >= size_; }
  size_t remaining() const { return offset_ < size_ ? size_ - offset_ : 0; }

  uint8_t NextByte() { return offset_ < size_ ? data_[offset_++] : 0; }

  uint32_t NextU32() {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(NextByte()) << (8 * i);
    }
    return value;
  }

  uint64_t NextU64() {
    return static_cast<uint64_t>(NextU32()) |
           (static_cast<uint64_t>(NextU32()) << 32);
  }

  int32_t NextI32() { return static_cast<int32_t>(NextU32()); }
  int64_t NextI64() { return static_cast<int64_t>(NextU64()); }

  /// Arbitrary float bits — including NaN and infinities.
  float NextFloat() {
    const uint32_t bits = NextU32();
    float value = 0.0f;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

/// Bit-exact float comparison (NaN == NaN, -0.0 != +0.0): the codec
/// transports float *bits*, so that is the equality a round-trip preserves.
inline bool BitEqual(float a, float b) {
  uint32_t abits = 0;
  uint32_t bbits = 0;
  std::memcpy(&abits, &a, sizeof(abits));
  std::memcpy(&bbits, &b, sizeof(bbits));
  return abits == bbits;
}

/// Structural equality on the member the frame's type selects, bit-exact on
/// floats. The other union members are scratch and deliberately ignored.
inline bool FramesEquivalent(const Frame& a, const Frame& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case FrameType::kUpdateBundle:
      return a.bundle == b.bundle;
    case FrameType::kRoundAdvance:
      return a.advance.counter == b.advance.counter &&
             a.advance.round == b.advance.round &&
             BitEqual(a.advance.probability, b.advance.probability);
    case FrameType::kEventBatch:
      return a.batch == b.batch;
    case FrameType::kChannelClose:
      return a.channel == b.channel;
    case FrameType::kHello:
      return a.site == b.site && a.protocol_version == b.protocol_version;
    case FrameType::kHeartbeat:
      return a.hb == b.hb && a.stats == b.stats && a.trace == b.trace;
  }
  return false;
}

}  // namespace fuzz
}  // namespace dsgm

#endif  // DSGM_FUZZ_FUZZ_UTIL_H_
