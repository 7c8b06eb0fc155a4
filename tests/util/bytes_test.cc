// Known answers for util::Fnv1a64Words, the checksum under rtr-snap
// snapshots, rtr-delt deltas and RTRF frames. The 8-aligned values are the
// ones files have always been sealed with (no tail to fold), so a saved
// snapshot or delta still loads; the 1-7 byte tails are the frame rule of
// protocol version 3 (net/frame.h).

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/bytes.h"

namespace rtr {
namespace {

// 16 bytes, none zero and no two alike.
std::string Input() {
  std::string bytes;
  for (int i = 0; i < 16; ++i) bytes.push_back(static_cast<char>(i * 37 + 1));
  return bytes;
}

TEST(BytesChecksumTest, AlignedInputsHashAsFilesAreSealed) {
  const std::string bytes = Input();
  EXPECT_EQ(Fnv1a64Words(""), kFnv1aWordsStart);
  EXPECT_EQ(Fnv1a64Words(std::string_view(bytes).substr(0, 8)),
            0x43674fe584e1bbe6ull);
  EXPECT_EQ(Fnv1a64Words(bytes), 0xd43c5bb88db7aebdull);
  // Two ranges chain through `state`, as the delta checksum does.
  EXPECT_EQ(Fnv1a64Words(std::string_view(bytes).substr(8),
                         Fnv1a64Words(std::string_view(bytes).substr(0, 8))),
            Fnv1a64Words(bytes));
}

TEST(BytesChecksumTest, TailBytesFoldInOneAtATime) {
  const std::string bytes = Input();
  // One word, then a tail of 1-7 bytes.
  const uint64_t want[] = {
      0x6a489200cb9220bdull, 0x2b710a59e94dfce9ull, 0x1f1130c76f8439aeull,
      0x4e6f18e27dad36c2ull, 0xf3fdc7db8d5399cdull, 0xebd3c911250d4addull,
      0xc6298221f596306eull,
  };
  for (size_t tail = 1; tail <= 7; ++tail) {
    EXPECT_EQ(Fnv1a64Words(std::string_view(bytes).substr(0, 8 + tail)),
              want[tail - 1])
        << tail << " tail bytes";
  }
  // A tail with no word before it.
  EXPECT_EQ(Fnv1a64Words(std::string_view(bytes).substr(0, 3)),
            0xa019714f353c41b1ull);
}

}  // namespace
}  // namespace rtr
