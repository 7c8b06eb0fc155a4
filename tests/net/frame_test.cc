// Fetch-reply decoder hardening: hostile counts, truncated prefixes, and the
// lifetime of decoded records. This binary counts heap allocations
// (bench/alloc_counter.h) so it can prove that no allocation is sized from
// an untrusted count. Suite names match the CI TSan filter (Transport).

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "dist/distributed_topk.h"
#include "dist/record_testing.h"
#include "graph/builder.h"
#include "net/frame.h"

namespace rtr {
namespace {

// Largest allocation a failed decode may make: its error message.
constexpr uint64_t kErrorPathPeakBytes = 256;

Graph TinyGraph() {
  GraphBuilder b;
  b.AddNodes(6);
  b.AddUndirectedEdge(0, 1, 1.0);
  b.AddUndirectedEdge(0, 2, 2.0);
  b.AddUndirectedEdge(1, 3, 0.5);
  b.AddUndirectedEdge(2, 4, 3.0);
  b.AddDirectedEdge(4, 5, 1.5);
  return b.Build().value();
}

// Records for nodes {0, 4, 5} and their encoded kFetchReply payload. Node 5
// has in-arcs only, so an empty column crosses the wire too.
struct Reply {
  std::vector<dist::NodeRecord> records;
  std::vector<uint8_t> payload;
};

Reply EncodedReply() {
  Graph g = TinyGraph();
  dist::GraphProcessor gp(g, 0, 1);
  Reply reply;
  EXPECT_TRUE(gp.Fetch({0, 4, 5}, &reply.records).ok());
  net::EncodeFetchReply(reply.records, &reply.payload);
  return reply;
}

void PatchU32(std::vector<uint8_t>* payload, size_t offset, uint32_t value) {
  std::memcpy(payload->data() + offset, &value, sizeof(value));
}

uint32_t ReadU32(const std::vector<uint8_t>& payload, size_t offset) {
  uint32_t value = 0;
  std::memcpy(&value, payload.data() + offset, sizeof(value));
  return value;
}

// Decodes `payload` expecting kIoError, with `out` untouched and no
// allocation larger than an error message.
void ExpectRejectedWithoutCountSizedAllocation(
    const std::vector<uint8_t>& payload, const char* what) {
  SCOPED_TRACE(what);
  std::vector<dist::NodeRecord> out;
  bench::ResetAllocPeak();
  const Status status = net::DecodeFetchReply(payload, &out);
  const uint64_t peak = bench::AllocPeakBytes();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);
  EXPECT_LE(peak, kErrorPathPeakBytes);
}

TEST(TransportFrameTest, InflatedFetchReplyCountsAreRejected) {
  const Reply reply = EncodedReply();
  // Offsets in the payload: u32 record count, then the first record's
  // u32 node, u32 n_out, u32 n_in.
  constexpr size_t kCount = 0;
  constexpr size_t kFirstOut = 8;
  constexpr size_t kFirstIn = 12;
  const uint32_t count = ReadU32(reply.payload, kCount);
  const uint32_t n_out = ReadU32(reply.payload, kFirstOut);
  const uint32_t n_in = ReadU32(reply.payload, kFirstIn);
  ASSERT_EQ(count, 3u);
  ASSERT_GT(n_out, 0u);
  ASSERT_GT(n_in, 0u);

  struct Case {
    const char* what;
    size_t offset;
    uint32_t value;
  };
  const Case cases[] = {
      {"count + 1", kCount, count + 1},
      {"count 0xFFFFFFFF", kCount, 0xFFFFFFFFu},
      {"n_out + 1", kFirstOut, n_out + 1},
      {"n_out 0x7FFFFFFF", kFirstOut, 0x7FFFFFFFu},
      {"n_out 0xFFFFFFFF", kFirstOut, 0xFFFFFFFFu},
      {"n_in + 1", kFirstIn, n_in + 1},
      {"n_in 0xFFFFFFFF", kFirstIn, 0xFFFFFFFFu},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> payload = reply.payload;
    PatchU32(&payload, c.offset, c.value);
    ExpectRejectedWithoutCountSizedAllocation(payload, c.what);
  }
}

TEST(TransportFrameTest, EveryTruncatedFetchReplyIsRejected) {
  const Reply reply = EncodedReply();
  for (size_t len = 0; len < reply.payload.size(); ++len) {
    std::vector<uint8_t> prefix(reply.payload.begin(),
                                reply.payload.begin() + len);
    std::vector<dist::NodeRecord> out;
    EXPECT_EQ(net::DecodeFetchReply(prefix, &out).code(),
              StatusCode::kIoError)
        << "prefix of " << len << " bytes";
    EXPECT_TRUE(out.empty());
  }
  // Trailing bytes are as corrupt as missing ones.
  std::vector<uint8_t> padded = reply.payload;
  padded.push_back(0);
  std::vector<dist::NodeRecord> out;
  EXPECT_EQ(net::DecodeFetchReply(padded, &out).code(), StatusCode::kIoError);
}

TEST(TransportFrameTest, DecodedRecordsOutliveThePayload) {
  const Reply reply = EncodedReply();
  std::vector<dist::NodeRecord> decoded;
  {
    std::vector<uint8_t> payload = reply.payload;
    ASSERT_TRUE(net::DecodeFetchReply(payload, &decoded).ok());
  }  // payload freed: the records must view their own block, not it
  dist::ExpectSameRecords(decoded, reply.records);
}

TEST(TransportFrameTest, DecodeAppendsAfterExistingRecords) {
  const Reply reply = EncodedReply();
  std::vector<dist::NodeRecord> out = reply.records;
  ASSERT_TRUE(net::DecodeFetchReply(reply.payload, &out).ok());
  std::vector<dist::NodeRecord> want = reply.records;
  want.insert(want.end(), reply.records.begin(), reply.records.end());
  dist::ExpectSameRecords(out, want);
}

}  // namespace
}  // namespace rtr
