// Standalone driver for the fuzz harnesses when the compiler has no
// libFuzzer runtime (GCC builds). It speaks enough of libFuzzer's CLI that
// the CI invocation and the ctest smoke entries work unchanged with either
// driver:
//
//   fuzz_codec_decode [corpus_dir ...] [-runs=N] [-max_total_time=SECONDS]
//                     [-seed=S]  (other -flags are accepted and ignored)
//
// Behavior: replay every corpus file through LLVMFuzzerTestOneInput, then —
// if -runs or -max_total_time asked for it — run a deterministic mutation
// loop (bitflips, byte edits, truncation, extension, splices, interesting
// length prefixes) over the corpus until either bound is reached. Not
// coverage-guided; the point is crash reproduction and cheap smoke-level
// exploration anywhere, with real libFuzzer reserved for clang CI.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

constexpr size_t kMaxInputSize = 1 << 16;

std::vector<uint8_t> ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// One mutation step; grows/shrinks/corrupts `input` in place.
void Mutate(dsgm::Rng& rng, const std::vector<std::vector<uint8_t>>& corpus,
            std::vector<uint8_t>* input) {
  switch (rng.NextBounded(7)) {
    case 0:  // Bit flip.
      if (!input->empty()) {
        (*input)[rng.NextBounded(input->size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    case 1:  // Overwrite a byte.
      if (!input->empty()) {
        (*input)[rng.NextBounded(input->size())] =
            static_cast<uint8_t>(rng.Next());
      }
      break;
    case 2:  // Insert a random byte.
      if (input->size() < kMaxInputSize) {
        input->insert(input->begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.NextBounded(input->size() + 1)),
                      static_cast<uint8_t>(rng.Next()));
      }
      break;
    case 3:  // Truncate.
      if (!input->empty()) {
        input->resize(rng.NextBounded(input->size()));
      }
      break;
    case 4:  // Append random tail.
      for (size_t i = 0, n = 1 + rng.NextBounded(16);
           i < n && input->size() < kMaxInputSize; ++i) {
        input->push_back(static_cast<uint8_t>(rng.Next()));
      }
      break;
    case 5:  // Splice a random window of another corpus entry.
      if (!corpus.empty()) {
        const std::vector<uint8_t>& other =
            corpus[rng.NextBounded(corpus.size())];
        if (!other.empty()) {
          const size_t from = rng.NextBounded(other.size());
          const size_t len = 1 + rng.NextBounded(other.size() - from);
          const size_t at = rng.NextBounded(input->size() + 1);
          input->insert(
              input->begin() + static_cast<std::ptrdiff_t>(at),
              other.begin() + static_cast<std::ptrdiff_t>(from),
              other.begin() + static_cast<std::ptrdiff_t>(from + len));
          if (input->size() > kMaxInputSize) input->resize(kMaxInputSize);
        }
      }
      break;
    default:  // Plant an interesting u32 (length-prefix tampering).
      if (input->size() >= 4) {
        static constexpr uint32_t kInteresting[] = {
            0,          1,          0x7f,       0x80,       0xff,
            0x100,      0xffff,     0x10000,    0x3fffffff, 0x40000000,
            0x04000000, 0x04000001, 0x7fffffff, 0xffffffff};
        const uint32_t value =
            kInteresting[rng.NextBounded(sizeof(kInteresting) /
                                         sizeof(kInteresting[0]))];
        const size_t at = rng.NextBounded(input->size() - 3);
        for (int i = 0; i < 4; ++i) {
          (*input)[at + static_cast<size_t>(i)] =
              static_cast<uint8_t>(value >> (8 * i));
        }
      }
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  int64_t runs = -1;
  int64_t max_total_time = -1;
  uint64_t seed = 0x5eedf00dULL;
  std::vector<std::filesystem::path> corpus_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("-runs=", 0) == 0) {
      runs = std::atoll(arg.c_str() + 6);
    } else if (arg.rfind("-max_total_time=", 0) == 0) {
      max_total_time = std::atoll(arg.c_str() + 16);
    } else if (arg.rfind("-seed=", 0) == 0) {
      seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 6));
    } else if (!arg.empty() && arg[0] == '-') {
      // libFuzzer flag with no standalone equivalent (-dict=, -jobs=, ...).
      std::fprintf(stderr, "standalone driver: ignoring %s\n", arg.c_str());
    } else {
      corpus_paths.emplace_back(arg);
    }
  }

  // Replay the corpus.
  std::vector<std::vector<uint8_t>> corpus;
  for (const auto& path : corpus_paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) corpus.push_back(ReadFile(entry.path()));
      }
    } else if (std::filesystem::is_regular_file(path, ec)) {
      corpus.push_back(ReadFile(path));
    }
  }
  for (const auto& input : corpus) {
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  std::fprintf(stderr, "standalone driver: replayed %zu corpus inputs\n",
               corpus.size());

  // Mutation loop, bounded by whichever of -runs / -max_total_time is set.
  if (runs < 0 && max_total_time < 0) return 0;
  if (runs < 0) runs = INT64_MAX;
  const auto deadline =
      max_total_time < 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::seconds(max_total_time);
  dsgm::Rng rng(seed);
  std::vector<uint8_t> input;
  int64_t executed = 0;
  for (; executed < runs; ++executed) {
    if ((executed & 0xff) == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    if (corpus.empty() || rng.NextBounded(8) == 0) {
      input.clear();
    } else {
      input = corpus[rng.NextBounded(corpus.size())];
    }
    const uint64_t mutations = 1 + rng.NextBounded(8);
    for (uint64_t m = 0; m < mutations; ++m) Mutate(rng, corpus, &input);
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  std::fprintf(stderr, "standalone driver: executed %lld mutated runs\n",
               static_cast<long long>(executed));
  return 0;
}
