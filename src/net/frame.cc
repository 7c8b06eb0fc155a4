#include "net/frame.h"

#include <cstring>
#include <memory>
#include <string>

namespace rtr::net {

namespace {

// Append/read primitives. All integers little-endian host order; the reader
// side is bounds-checked so a truncated or hostile payload yields kIoError,
// never an out-of-bounds read.
template <typename T>
void Append(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

template <typename T>
void AppendArray(std::vector<uint8_t>* out, const T* data, size_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + count * sizeof(T));
  std::memcpy(out->data() + at, data, count * sizeof(T));
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - at_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > (bytes_.size() - at_) / sizeof(T)) return false;
    out->resize(count);
    return ReadArray(out->data(), count);
  }

  // Copies `count` values into caller storage that holds at least that many.
  template <typename T>
  bool ReadArray(T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > (bytes_.size() - at_) / sizeof(T)) return false;
    if (count != 0) std::memcpy(out, bytes_.data() + at_, count * sizeof(T));
    at_ += count * sizeof(T);
    return true;
  }

  // Steps over `count` items of `item_bytes` each, bounds-checked first.
  bool Skip(size_t count, size_t item_bytes) {
    if (count > (bytes_.size() - at_) / item_bytes) return false;
    at_ += count * item_bytes;
    return true;
  }

  bool exhausted() const { return at_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t at_ = 0;
};

// Copies the next `n` values of a fetch reply to `*cursor`, advances the
// cursor past them and returns a view of the copy. Only called on a payload
// DecodeFetchReply's first pass has bounds-checked, so the read stays in
// range.
template <typename T>
std::span<const T> TakeColumn(Reader& reader, T** cursor, uint32_t n) {
  T* begin = *cursor;
  (void)reader.ReadArray(begin, n);
  *cursor += n;
  return {begin, n};
}

Status Truncated(const char* what) {
  return Status::IoError(std::string("truncated ") + what + " payload");
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void EncodeFrame(FrameType type, uint64_t request_id,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(kFrameHeaderBytes + payload.size());
  Append<uint32_t>(out, kFrameMagic);
  Append<uint8_t>(out, kProtocolVersion);
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint16_t>(out, 0);
  Append<uint64_t>(out, request_id);
  Append<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  Append<uint32_t>(out, 0);
  Append<uint64_t>(out, Fnv1a64(payload.data(), payload.size()));
  AppendArray(out, payload.data(), payload.size());
}

Status DecodeFrameHeader(const uint8_t* buf, FrameHeader* header) {
  uint32_t magic = 0;
  std::memcpy(&magic, buf, sizeof(magic));
  if (magic != kFrameMagic) {
    return Status::IoError("bad frame magic (stream desynchronized)");
  }
  header->version = buf[4];
  if (header->version != kProtocolVersion) {
    return Status::IoError("unsupported protocol version " +
                           std::to_string(header->version));
  }
  const uint8_t type = buf[5];
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kErrorReply)) {
    return Status::IoError("unknown frame type " + std::to_string(type));
  }
  header->type = static_cast<FrameType>(type);
  std::memcpy(&header->request_id, buf + 8, sizeof(uint64_t));
  std::memcpy(&header->payload_len, buf + 16, sizeof(uint32_t));
  if (header->payload_len > kMaxPayloadBytes) {
    return Status::IoError("frame payload of " +
                           std::to_string(header->payload_len) +
                           " bytes exceeds the protocol cap");
  }
  std::memcpy(&header->checksum, buf + kChecksumOffset, sizeof(uint64_t));
  return Status::OK();
}

Status VerifyFramePayload(const FrameHeader& header,
                          std::span<const uint8_t> payload) {
  const uint64_t got = Fnv1a64(payload.data(), payload.size());
  if (got != header.checksum) {
    return Status::IoError("frame payload checksum mismatch");
  }
  return Status::OK();
}

void EncodeHello(const HelloPayload& hello, std::vector<uint8_t>* out) {
  out->clear();
  Append(out, hello.shard);
  Append(out, hello.num_gps);
  Append(out, hello.num_nodes);
  Append(out, hello.generation);
}

Status DecodeHello(std::span<const uint8_t> payload, HelloPayload* hello) {
  Reader reader(payload);
  if (!reader.Read(&hello->shard) || !reader.Read(&hello->num_gps) ||
      !reader.Read(&hello->num_nodes) || !reader.Read(&hello->generation) ||
      !reader.exhausted()) {
    return Truncated("hello");
  }
  return Status::OK();
}

void EncodeFetchRequest(const std::vector<NodeId>& nodes,
                        std::vector<uint8_t>* out) {
  out->clear();
  Append<uint32_t>(out, static_cast<uint32_t>(nodes.size()));
  AppendArray(out, nodes.data(), nodes.size());
}

Status DecodeFetchRequest(std::span<const uint8_t> payload,
                          std::vector<NodeId>* nodes) {
  Reader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&count) || !reader.ReadArray(nodes, count) ||
      !reader.exhausted()) {
    return Truncated("fetch request");
  }
  return Status::OK();
}

// Bytes one arc occupies in a kFetchReply: its endpoint id plus its weight
// and probability.
constexpr size_t kReplyArcBytes = sizeof(NodeId) + 2 * sizeof(double);
// Bytes of a kFetchReply record before its columns: node, n_out, n_in.
constexpr size_t kReplyRecordHeaderBytes = 3 * sizeof(uint32_t);

void EncodeFetchReply(std::span<const dist::NodeRecord> records,
                      std::vector<uint8_t>* out) {
  size_t bytes = sizeof(uint32_t);
  for (const dist::NodeRecord& record : records) {
    bytes += kReplyRecordHeaderBytes +
             (record.num_out_arcs() + record.num_in_arcs()) * kReplyArcBytes;
  }
  out->resize(bytes);
  uint8_t* at = out->data();
  auto put = [&at](auto column) {
    const size_t n = column.size_bytes();
    if (n != 0) std::memcpy(at, column.data(), n);
    at += n;
  };
  auto put_u32 = [&put](size_t value) {
    const uint32_t v = static_cast<uint32_t>(value);
    put(std::span<const uint32_t>(&v, 1));
  };
  put_u32(records.size());
  for (const dist::NodeRecord& record : records) {
    put_u32(record.node);
    put_u32(record.num_out_arcs());
    put_u32(record.num_in_arcs());
    put(record.out_targets);
    put(record.out_weights);
    put(record.out_probs);
    put(record.in_sources);
    put(record.in_weights);
    put(record.in_probs);
  }
}

Status DecodeFetchReply(std::span<const uint8_t> payload,
                        std::vector<dist::NodeRecord>* out) {
  // Pass 1: walk the record headers and bounds-check every count against
  // the bytes that remain, before anything is allocated. A hostile count
  // fails here, at the first record it overruns.
  Reader reader(payload);
  uint32_t count = 0;
  if (!reader.Read(&count)) return Truncated("fetch reply");
  size_t total_arcs = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t node = 0;
    uint32_t n_out = 0;
    uint32_t n_in = 0;
    if (!reader.Read(&node) || !reader.Read(&n_out) || !reader.Read(&n_in) ||
        !reader.Skip(n_out, kReplyArcBytes) ||
        !reader.Skip(n_in, kReplyArcBytes)) {
      return Truncated("fetch reply");
    }
    total_arcs += static_cast<size_t>(n_out) + n_in;
  }
  if (!reader.exhausted()) {
    return Status::IoError("trailing bytes after fetch reply payload");
  }

  // Pass 2: copy the columns into one block per reply — ids in one array,
  // weights and probs in another, record after record — and hand out
  // records that view it. The sizes are exact and were checked above.
  struct Block {
    std::unique_ptr<NodeId[]> ids;
    std::unique_ptr<double[]> values;
  };
  auto block = std::make_shared<Block>();
  block->ids = std::make_unique_for_overwrite<NodeId[]>(total_arcs);
  block->values = std::make_unique_for_overwrite<double[]>(2 * total_arcs);
  NodeId* ids = block->ids.get();
  double* values = block->values.get();
  reader = Reader(payload);
  (void)reader.Read(&count);
  out->reserve(out->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    dist::NodeRecord& record = out->emplace_back();
    uint32_t n_out = 0;
    uint32_t n_in = 0;
    (void)reader.Read(&record.node);
    (void)reader.Read(&n_out);
    (void)reader.Read(&n_in);
    record.out_targets = TakeColumn(reader, &ids, n_out);
    record.out_weights = TakeColumn(reader, &values, n_out);
    record.out_probs = TakeColumn(reader, &values, n_out);
    record.in_sources = TakeColumn(reader, &ids, n_in);
    record.in_weights = TakeColumn(reader, &values, n_in);
    record.in_probs = TakeColumn(reader, &values, n_in);
    record.storage = block;
  }
  return Status::OK();
}

void EncodeErrorReply(const Status& status, std::vector<uint8_t>* out) {
  out->clear();
  Append<uint32_t>(out, static_cast<uint32_t>(status.code()));
  Append<uint32_t>(out, static_cast<uint32_t>(status.message().size()));
  AppendArray(out, status.message().data(), status.message().size());
}

Status DecodeErrorReply(std::span<const uint8_t> payload,
                        Status* remote_status) {
  Reader reader(payload);
  uint32_t code = 0;
  uint32_t length = 0;
  if (!reader.Read(&code) || !reader.Read(&length)) {
    return Truncated("error reply");
  }
  std::vector<char> message;
  if (!reader.ReadArray(&message, length) || !reader.exhausted()) {
    return Truncated("error reply");
  }
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::IoError("error reply carries invalid status code " +
                           std::to_string(code));
  }
  *remote_status = Status(static_cast<StatusCode>(code),
                          std::string(message.begin(), message.end()));
  return Status::OK();
}

}  // namespace rtr::net
