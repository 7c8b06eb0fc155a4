#ifndef RTR_NET_FRAME_H_
#define RTR_NET_FRAME_H_

// Wire format of the AP/GP RPC protocol (DESIGN.md §12).
//
// Every message is one frame: a fixed 32-byte header followed by a typed
// payload. The header carries the payload length (so a reader always knows
// how many bytes to expect — no sentinels, no in-band escapes) and an
// FNV-1a checksum over the payload, verified before any payload byte is
// interpreted. A frame that fails validation (magic, version, type,
// length, reserved bytes, checksum) is a transport-level error: the
// connection is considered poisoned and the client re-sends on a fresh one
// (net/rpc_client.h).
//
//   offset  size  field
//        0     4  magic "RTRF"
//        4     1  protocol version (kProtocolVersion)
//        5     1  frame type (FrameType)
//        6     2  reserved, must be zero
//        8     8  request id — echoed by the reply, multiplexing key
//       16     4  payload length (<= kMaxPayloadBytes)
//       20     4  reserved, must be zero
//       24     8  FNV-1a 64 checksum of the payload bytes (byte-wise,
//                 util/bytes.h Fnv1a64Bytes)
//
// Integers are little-endian host order (the project already writes
// snapshots this way; x86-64 and AArch64 both qualify). Every field is
// written by util/bytes.h's ByteWriter and read by its bounds-checked
// ByteReader, the codec the snapshot and delta files share; a decoder
// rejects a truncated, oversized or trailing-byte payload as kIoError and
// checks every count against the remaining bytes before it allocates.
//
// Payloads:
//   kHello       HelloPayload — the client's expectation of the shard.
//   kHelloAck    HelloPayload — the server's actual shard identity.
//   kFetch       u32 count, count * u32 node ids.
//   kFetchReply  u32 count, then per record: u32 node, u32 n_out, u32 n_in,
//                u32 out_targets[n_out], f64 out_probs[n_out],
//                u32 in_sources[n_in], f64 in_probs[n_in].
//   kErrorReply  u32 status code, u32 length, message bytes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/distributed_topk.h"
#include "graph/types.h"
#include "util/status.h"

namespace rtr::net {

inline constexpr uint32_t kFrameMagic = 0x46525452;  // "RTRF"
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 32;
// Hard cap on a single frame's payload; a header announcing more is treated
// as corrupt (it would otherwise make a reader allocate unboundedly).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;
// In-frame offset of the checksum field; the fault-injection harness flips
// a byte here to script "corrupted checksum" (net/fault.h).
inline constexpr size_t kChecksumOffset = 24;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kFetch = 3,
  kFetchReply = 4,
  kErrorReply = 5,
};

struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kHello;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

// Encodes header + payload into `out` (replacing its contents): one frame,
// ready for a single Transport::WriteAll call.
void EncodeFrame(FrameType type, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out);

// Parses and validates the fixed header (`buf` holds kFrameHeaderBytes).
// Corrupt magic/version/type/length or nonzero reserved bytes => kIoError.
Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* header);

// Verifies the payload against the header's checksum; kIoError on mismatch.
Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload);

// Shard identity exchanged at connection setup. The client sends what it
// expects (its stripe layout + AP graph); the server acks with what it
// actually serves; any mismatch is a configuration error surfaced as
// kFailedPrecondition before a single record crosses the wire.
struct HelloPayload {
  uint32_t shard = 0;
  uint32_t num_gps = 0;
  uint64_t num_nodes = 0;
  uint64_t generation = 0;
};

void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out);
Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* hello);

void EncodeFetchRequest(const std::vector<NodeId>& nodes,
                        std::vector<uint8_t>* out);
Status DecodeFetchRequest(std::span<const uint8_t> payload,
                          std::vector<NodeId>* nodes);

// A kFetchReply record's bytes before its columns (node, n_out, n_in), and
// per arc (endpoint id and probability).
inline constexpr size_t kReplyRecordHeaderBytes = 3 * sizeof(uint32_t);
inline constexpr size_t kReplyArcBytes = sizeof(NodeId) + sizeof(double);

// Encodes straight from the records' column spans, sizing `out` once.
void EncodeFetchReply(std::span<const dist::NodeRecord> records,
                      std::vector<uint8_t>* out);
// Appends the decoded records to `out` (matching RecordSource::Fetch). Every
// count is bounds-checked against the payload before anything is
// allocated; the columns are then copied into one shared block per reply,
// which the records view, so the records outlive `payload`. On error `out`
// is left as it was.
Status DecodeFetchReply(std::span<const uint8_t> payload,
                        std::vector<dist::NodeRecord>* out);

void EncodeErrorReply(const Status& status, std::vector<uint8_t>* out);
// Decodes the remote status carried by a kErrorReply payload.
Status DecodeErrorReply(std::span<const uint8_t> payload,
                        Status* remote_status);

}  // namespace rtr::net

#endif  // RTR_NET_FRAME_H_
