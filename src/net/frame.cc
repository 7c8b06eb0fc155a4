#include "net/frame.h"

#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "util/bytes.h"

namespace rtr::net {

namespace {

// The fixed frame header, as laid out in net/frame.h.
struct WireHeader {
  uint32_t magic;
  uint8_t version;
  uint8_t type;
  uint16_t reserved0;
  uint64_t request_id;
  uint32_t payload_len;
  uint32_t reserved1;
  uint64_t checksum;
};
static_assert(sizeof(WireHeader) == kFrameHeaderBytes);
static_assert(offsetof(WireHeader, checksum) == kChecksumOffset);

// kHello and kHelloAck carry the struct verbatim.
static_assert(sizeof(HelloPayload) == 24 &&
              offsetof(HelloPayload, num_nodes) == 8);

}  // namespace

void EncodeFrame(FrameType type, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(kFrameHeaderBytes + payload.size());
  ByteWriter w(out);
  w.Pod(WireHeader{kFrameMagic, kProtocolVersion, static_cast<uint8_t>(type),
                   0, request_id, static_cast<uint32_t>(payload.size()), 0,
                   Fnv1a64Bytes(payload)});
  w.Items(payload);
}

Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* header) {
  WireHeader wire{};
  ByteReader(std::span(buf, kFrameHeaderBytes), "frame header").Pod(&wire);
  if (wire.magic != kFrameMagic) {
    return Status::IoError("bad frame magic (stream desynchronized)");
  }
  if (wire.version != kProtocolVersion) {
    return Status::IoError("unsupported protocol version " +
                           std::to_string(wire.version));
  }
  if (wire.type < static_cast<uint8_t>(FrameType::kHello) ||
      wire.type > static_cast<uint8_t>(FrameType::kErrorReply)) {
    return Status::IoError("unknown frame type " + std::to_string(wire.type));
  }
  if (wire.reserved0 != 0 || wire.reserved1 != 0) {
    return Status::IoError("frame header reserved bytes are not zero");
  }
  if (wire.payload_len > kMaxPayloadBytes) {
    return Status::IoError("frame payload of " +
                           std::to_string(wire.payload_len) +
                           " bytes exceeds the protocol cap");
  }
  *header = {wire.version, static_cast<FrameType>(wire.type), wire.request_id,
             wire.payload_len, wire.checksum};
  return Status::OK();
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload) {
  if (Fnv1a64Bytes(payload) != header.checksum) {
    return Status::IoError("frame payload checksum mismatch");
  }
  return Status::OK();
}

void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter(out).Pod(hello);
}

Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* hello) {
  ByteReader r(payload, "hello payload");
  r.Pod(hello);
  r.End();
  return r.status();
}

void EncodeFetchRequest(const std::vector<NodeId>& nodes,
                        std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter w(out);
  w.Pod(static_cast<uint32_t>(nodes.size()));
  w.Items(nodes);
}

Status DecodeFetchRequest(std::span<const uint8_t> payload,
                          std::vector<NodeId>* nodes) {
  ByteReader r(payload, "fetch request payload");
  uint32_t count = 0;
  r.Pod(&count);
  r.Items(count, nodes);
  r.End();
  return r.status();
}

void EncodeFetchReply(std::span<const dist::NodeRecord> records,
                      std::vector<uint8_t>* out) {
  size_t bytes = sizeof(uint32_t);
  for (const dist::NodeRecord& record : records) {
    bytes += kReplyRecordHeaderBytes +
             (record.num_out_arcs() + record.num_in_arcs()) * kReplyArcBytes;
  }
  out->clear();
  out->reserve(bytes);
  ByteWriter w(out);
  w.Pod(static_cast<uint32_t>(records.size()));
  for (const dist::NodeRecord& record : records) {
    w.Pod(record.node);
    w.Pod(static_cast<uint32_t>(record.num_out_arcs()));
    w.Pod(static_cast<uint32_t>(record.num_in_arcs()));
    w.Items(record.out_targets);
    w.Items(record.out_probs);
    w.Items(record.in_sources);
    w.Items(record.in_probs);
  }
}

Status DecodeFetchReply(std::span<const uint8_t> payload,
                        std::vector<dist::NodeRecord>* out) {
  // Pass 1: walk the record headers and bounds-check every count against
  // the bytes that remain, before anything is allocated. A hostile count
  // fails here, at the first record it overruns.
  ByteReader r(payload, "fetch reply payload");
  uint32_t count = 0;
  r.Pod(&count);
  size_t total_arcs = 0;
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    uint32_t node = 0;
    uint32_t n_out = 0;
    uint32_t n_in = 0;
    r.Pod(&node);
    r.Pod(&n_out);
    r.Pod(&n_in);
    r.Skip(n_out, kReplyArcBytes);
    r.Skip(n_in, kReplyArcBytes);
    total_arcs += static_cast<size_t>(n_out) + n_in;
  }
  if (!r.End()) return r.status();

  // Pass 2: copy the columns into one block per reply — ids in one array,
  // probs in another, record after record — and hand out records that
  // view it. The sizes are exact and were checked above.
  struct Block {
    std::unique_ptr<NodeId[]> ids;
    std::unique_ptr<double[]> probs;
  };
  auto block = std::make_shared<Block>();
  block->ids = std::make_unique_for_overwrite<NodeId[]>(total_arcs);
  block->probs = std::make_unique_for_overwrite<double[]>(total_arcs);
  NodeId* ids = block->ids.get();
  double* probs = block->probs.get();
  ByteReader columns(payload, "fetch reply payload");
  // Copies the next `n` values to `*cursor` and returns a view of the copy.
  auto take = [&columns](auto*& cursor, uint32_t n) {
    auto* begin = cursor;
    columns.Items(n, begin);
    cursor += n;
    return std::span<const std::remove_pointer_t<decltype(begin)>>(begin, n);
  };
  columns.Pod(&count);
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    dist::NodeRecord& record = out->emplace_back();
    uint32_t n_out = 0;
    uint32_t n_in = 0;
    columns.Pod(&record.node);
    columns.Pod(&n_out);
    columns.Pod(&n_in);
    record.out_targets = take(ids, n_out);
    record.out_probs = take(probs, n_out);
    record.in_sources = take(ids, n_in);
    record.in_probs = take(probs, n_in);
    record.storage = block;
  }
  return Status::OK();
}

void EncodeErrorReply(const Status& status, std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter w(out);
  w.Pod(static_cast<uint32_t>(status.code()));
  w.String(status.message());
}

Status DecodeErrorReply(std::span<const uint8_t> payload,
                        Status* remote_status) {
  ByteReader r(payload, "error reply payload");
  uint32_t code = 0;
  std::string message;
  if (!r.Pod(&code) || !r.String(&message) || !r.End()) return r.status();
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::IoError("error reply carries invalid status code " +
                           std::to_string(code));
  }
  *remote_status = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace rtr::net
