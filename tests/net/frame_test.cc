// Frame decoder hardening: hostile fetch-reply counts, truncated prefixes,
// the lifetime of decoded records, and a seeded mutation sweep over whole
// frames of every type. This binary counts heap allocations
// (bench/alloc_counter.h) so it can prove that no allocation is sized from
// an untrusted count. Suite names match the CI TSan filter (Transport).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "dist/distributed_topk.h"
#include "dist/record_testing.h"
#include "graph/builder.h"
#include "net/frame.h"
#include "util/bytes.h"
#include "util/mutation_testing.h"
#include "util/random.h"

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
  // The records keep the graph alive after this function returns.
  dist::GraphProcessor gp(std::make_shared<const Graph>(TinyGraph()), 0, 1);
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

// ---------------------------------------------------------------------------
// Seeded mutation sweep over whole frames: header, checksum and every
// payload decoder must give OK or kIoError on each mutant, and no decoder
// may allocate more than its payload could back.

// Seals with the frame rule (net::FrameChecksum), as EncodeFrame does.
void ResealFrame(std::string* frame) {
  const std::span<const uint8_t> payload(
      reinterpret_cast<const uint8_t*>(frame->data()) + net::kFrameHeaderBytes,
      frame->size() - net::kFrameHeaderBytes);
  WriteWord(frame, net::kChecksumOffset, net::FrameChecksum(payload));
}

// Offsets of a fetch reply's counts: the record count, then each record's
// n_out and n_in.
std::vector<size_t> ReplyCountOffsets(
    const std::vector<dist::NodeRecord>& records) {
  std::vector<size_t> offsets = {0};
  size_t at = sizeof(uint32_t);
  for (const dist::NodeRecord& record : records) {
    offsets.push_back(at + 4);
    offsets.push_back(at + 8);
    at += net::kReplyRecordHeaderBytes +
          net::kReplyArcBytes * (record.num_out_arcs() + record.num_in_arcs());
  }
  return offsets;
}

// An accepted reply's columns must be consistent, account for every payload
// byte, and be readable end to end (under ASan a column that strays past
// its block fails here).
void ExpectInRangeColumns(const std::vector<dist::NodeRecord>& records,
                          size_t payload_bytes) {
  size_t bytes = sizeof(uint32_t);
  double sink = 0.0;
  for (const dist::NodeRecord& record : records) {
    ASSERT_EQ(record.out_probs.size(), record.out_targets.size());
    ASSERT_EQ(record.in_probs.size(), record.in_sources.size());
    bytes += net::kReplyRecordHeaderBytes +
             net::kReplyArcBytes *
                 (record.num_out_arcs() + record.num_in_arcs());
    for (NodeId v : record.out_targets) sink += v;
    for (NodeId v : record.in_sources) sink += v;
    for (double x : record.out_probs) sink += x;
    for (double x : record.in_probs) sink += x;
  }
  EXPECT_EQ(bytes, payload_bytes);
  volatile double keep = sink;
  (void)keep;
}

// Decodes `payload` as a `type` payload: OK or kIoError, and no allocation
// larger than the payload (or than an error message). The record vector
// already has room for as many records as the payload could hold (each
// takes at least its header's bytes), so only the decoder's own
// allocations count.
// Returns whether the payload decoded.
bool DecodesSafely(net::FrameType type, std::span<const uint8_t> payload) {
  std::vector<dist::NodeRecord> records;
  records.reserve(payload.size() / net::kReplyRecordHeaderBytes + 1);
  std::vector<NodeId> nodes;
  net::HelloPayload hello;
  Status remote = Status::OK();
  Status status = Status::OK();
  bench::ResetAllocPeak();
  switch (type) {
    case net::FrameType::kHello:
    case net::FrameType::kHelloAck:
      status = net::DecodeHello(payload, &hello);
      break;
    case net::FrameType::kFetch:
      status = net::DecodeFetchRequest(payload, &nodes);
      break;
    case net::FrameType::kFetchReply:
      status = net::DecodeFetchReply(payload, &records);
      break;
    case net::FrameType::kErrorReply:
      status = net::DecodeErrorReply(payload, &remote);
      break;
  }
  const uint64_t peak = bench::AllocPeakBytes();
  EXPECT_LE(peak, std::max<uint64_t>(payload.size(), kErrorPathPeakBytes))
      << "frame type " << static_cast<int>(type);
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    return false;
  }
  if (type == net::FrameType::kFetchReply) {
    ExpectInRangeColumns(records, payload.size());
  }
  return true;
}

TEST(TransportFrameTest, SeededFrameMutantsGiveOkOrIoError) {
  const Reply reply = EncodedReply();
  std::vector<uint8_t> hello;
  std::vector<uint8_t> request;
  std::vector<uint8_t> error;
  net::EncodeHello({1, 3, 6, 9}, &hello);
  net::EncodeFetchRequest({0, 4, 5}, &request);
  net::EncodeErrorReply(Status::InvalidArgument("node 7 is not on shard 1"),
                        &error);
  struct Case {
    net::FrameType type;
    std::vector<uint8_t> payload;
    std::vector<size_t> count_offsets;  // within the payload
  };
  const Case corpus[] = {
      {net::FrameType::kHello, hello, {}},
      {net::FrameType::kHelloAck, hello, {}},
      {net::FrameType::kFetch, request, {0}},
      {net::FrameType::kFetchReply, reply.payload,
       ReplyCountOffsets(reply.records)},
      {net::FrameType::kErrorReply, error, {4}},
  };
  const net::FrameType kAllTypes[] = {
      net::FrameType::kHello, net::FrameType::kFetch,
      net::FrameType::kFetchReply, net::FrameType::kErrorReply};
  constexpr size_t kPayloadLengthAt = 16;

  Rng rng(20130408);
  size_t accepted = 0;
  size_t rejected = 0;
  for (const Case& c : corpus) {
    std::vector<uint8_t> frame;
    net::EncodeFrame(c.type, 77, c.payload, &frame);
    const std::string original(frame.begin(), frame.end());
    // Resealing an unmutated frame must change nothing, or every resealed
    // mutant would fail the checksum and never reach a payload decoder.
    std::string resealed = original;
    ResealFrame(&resealed);
    ASSERT_EQ(resealed, original) << "frame type "
                                  << static_cast<int>(c.type);
    net::FrameHeader sealed_header;
    ASSERT_TRUE(net::DecodeFrameHeader(frame.data(), &sealed_header).ok());
    ASSERT_TRUE(net::VerifyFramePayload(sealed_header, c.payload).ok());
    MutationFormat format = {
        .header_bytes = net::kFrameHeaderBytes,
        .count_offsets = {kPayloadLengthAt},
        .count_width = sizeof(uint32_t),
        .small_value_bound = 16,
        .reseal = ResealFrame,
    };
    for (size_t at : c.count_offsets) {
      format.count_offsets.push_back(net::kFrameHeaderBytes + at);
    }
    for (int i = 0; i < 200; ++i) {
      const Mutant mutant = Mutate(original, format, rng);
      SCOPED_TRACE("frame type " + std::to_string(static_cast<int>(c.type)) +
                   ", mutation " +
                   std::to_string(static_cast<int>(mutant.kind)) +
                   (mutant.sealed ? " (resealed)" : "") + ", iteration " +
                   std::to_string(i));
      const std::span<const uint8_t> bytes(
          reinterpret_cast<const uint8_t*>(mutant.bytes.data()),
          mutant.bytes.size());
      const std::span<const uint8_t> after_header =
          bytes.subspan(std::min(bytes.size(), net::kFrameHeaderBytes));
      // Every payload decoder sees the bytes, whatever the header says: a
      // payload of the wrong type is as hostile as a corrupted one.
      for (net::FrameType type : kAllTypes) DecodesSafely(type, after_header);

      // The transport's path: header, checksum, then the decoder the header
      // names. A payload longer than the bytes left is a short read.
      net::FrameHeader header;
      if (bytes.size() < net::kFrameHeaderBytes) {
        ++rejected;
        continue;
      }
      Status status = net::DecodeFrameHeader(bytes.data(), &header);
      if (status.ok() && header.payload_len > after_header.size()) {
        ++rejected;
        continue;
      }
      const std::span<const uint8_t> payload =
          after_header.first(status.ok() ? header.payload_len : 0);
      if (status.ok()) status = net::VerifyFramePayload(header, payload);
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
        ++rejected;
        continue;
      }
      if (!mutant.sealed) {
        // The checksum vouches for the payload: it is the original one.
        EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                               c.payload.begin(), c.payload.end()));
      }
      if (DecodesSafely(header.type, payload)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rtr
