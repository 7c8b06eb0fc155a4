#ifndef RTR_TESTS_UTIL_MUTATION_TESTING_H_
#define RTR_TESTS_UTIL_MUTATION_TESTING_H_

// Seeded mutants of a valid encoding, for the decoder sweeps over snapshots
// (tests/graph/snapshot_test.cc), deltas (tests/graph/delta_test.cc) and
// RPC frames (tests/net/frame_test.cc). Every draw comes from one rtr::Rng,
// so a sweep replays exactly from its seed.

#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/random.h"

namespace rtr {

// Little-endian unsigned field of `width` (at most 8) bytes at `at`.
inline uint64_t ReadWord(const std::string& bytes, size_t at,
                         size_t width = 8) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, width);
  return value;
}

// Stores the low `width` bytes of `value` at `at`.
inline void WriteWord(std::string* bytes, size_t at, uint64_t value,
                      size_t width = 8) {
  std::memcpy(bytes->data() + at, &value, width);
}

// Where a format keeps the fields a decoder trusts first.
struct MutationFormat {
  // Bytes before the payload. Half the bit flips land in them, and word
  // overwrites land after them.
  size_t header_bytes = 0;
  // Offsets of the count fields that count inflation targets, each
  // `count_width` bytes wide.
  std::vector<size_t> count_offsets;
  size_t count_width = 8;
  // Upper bound of the small values a word overwrite may write: small
  // values look like ids, types and lengths, so they probe the structural
  // checks rather than only the checksum.
  uint64_t small_value_bound = 64;
  // Recomputes the format's checksum in place, so a mutant gets past the
  // integrity pass to the checks behind it. Empty: never reseal.
  std::function<void(std::string*)> reseal;
};

enum class Mutation { kBitFlip, kTruncate, kInflateCount, kOverwriteWord };

struct Mutant {
  std::string bytes;
  Mutation kind = Mutation::kBitFlip;
  // True when the reseal changed the bytes: the checksum no longer
  // vouches for the original.
  bool sealed = false;
};

// One random mutant of `original`: 1-3 bit flips, a truncation to a shorter
// length, an inflated count, or an overwritten 8-aligned payload word.
// Inflated counts and overwritten words are resealed half the time.
inline Mutant Mutate(const std::string& original, const MutationFormat& format,
                     Rng& rng) {
  Mutant m{original, static_cast<Mutation>(rng.NextUint64(4))};
  std::string& bytes = m.bytes;
  switch (m.kind) {
    case Mutation::kBitFlip: {
      const uint64_t flips = 1 + rng.NextUint64(3);
      for (uint64_t i = 0; i < flips; ++i) {
        const size_t span =
            rng.NextBernoulli(0.5) ? format.header_bytes : bytes.size();
        bytes[rng.NextUint64(span)] ^=
            static_cast<char>(1u << rng.NextUint64(8));
      }
      return m;
    }
    case Mutation::kTruncate:
      bytes.resize(rng.NextUint64(bytes.size()));
      return m;
    case Mutation::kInflateCount: {
      if (format.count_offsets.empty()) return m;
      const size_t at =
          format.count_offsets[rng.NextUint64(format.count_offsets.size())];
      const uint64_t was = ReadWord(bytes, at, format.count_width);
      const uint64_t candidates[] = {
          was + 1 + rng.NextUint64(8),
          was + 4,
          was + 8,
          was * 2 + 1,
          uint64_t{1} << rng.NextUint64(64),
          std::numeric_limits<uint64_t>::max() - rng.NextUint64(16),
          uint64_t{1} << 32,
      };
      WriteWord(&bytes, at, candidates[rng.NextUint64(std::size(candidates))],
                format.count_width);
      break;
    }
    case Mutation::kOverwriteWord: {
      const size_t words = (bytes.size() - format.header_bytes) / 8;
      if (words == 0) return m;
      const size_t at = format.header_bytes + 8 * rng.NextUint64(words);
      const uint64_t was = ReadWord(bytes, at);
      const uint64_t candidates[] = {
          rng.NextUint64(),
          0,
          std::numeric_limits<uint64_t>::max(),
          rng.NextUint64(format.small_value_bound),
          was + 1,
          was - 1,
          was ^ (uint64_t{1} << rng.NextUint64(64)),
      };
      WriteWord(&bytes, at, candidates[rng.NextUint64(std::size(candidates))]);
      break;
    }
  }
  if (format.reseal && rng.NextBernoulli(0.5)) {
    const std::string unsealed = bytes;
    format.reseal(&bytes);
    m.sealed = bytes != unsealed;
  }
  return m;
}

}  // namespace rtr

#endif  // RTR_TESTS_UTIL_MUTATION_TESTING_H_
