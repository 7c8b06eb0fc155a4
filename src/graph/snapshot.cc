#include "graph/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RTR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "graph/io.h"
#include "obs/metrics.h"

namespace rtr {
namespace {

// The format stores the size_t offset columns verbatim as u64 and writes
// multi-byte values in native order; rtr targets 64-bit little-endian.
static_assert(sizeof(size_t) == 8, "rtr-snap 1 assumes 64-bit size_t");
static_assert(std::endian::native == std::endian::little,
              "rtr-snap 1 assumes a little-endian host");

constexpr size_t kHeaderBytes = 64;
// Far above any graph this system serves; keeps the size arithmetic below
// safely inside 64 bits for arbitrary (hostile) header values.
constexpr uint64_t kMaxSnapshotArcs = uint64_t{1} << 48;

bool g_mmap_fail_for_testing = false;

// Truthy env flag: set, non-empty, and not one of the usual "off" spellings.
bool EnvFlagSet(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return false;
  return std::strcmp(value, "0") != 0 && std::strcmp(value, "off") != 0 &&
         std::strcmp(value, "false") != 0;
}

// FNV-1a over the payload interpreted as 64-bit little-endian words. Every
// payload section is zero-padded to 8 bytes, so the payload is always a
// whole number of words; hashing word-wise keeps the integrity pass an
// order of magnitude cheaper than byte-wise FNV on multi-GB snapshots.
uint64_t Fnv1a64Words(const char* data, size_t n) {
  DCHECK_EQ(n % 8, 0u);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr size_t Padded(size_t n) { return (n + 7) & ~size_t{7}; }

void AppendRaw(std::string* buf, const void* data, size_t n) {
  if (n > 0) buf->append(static_cast<const char*>(data), n);
}

void AppendPadding(std::string* buf) {
  buf->append(Padded(buf->size()) - buf->size(), '\0');
}

template <typename T>
void AppendU(std::string* buf, T value) {
  AppendRaw(buf, &value, sizeof(value));
}

template <typename T>
void AppendColumn(std::string* buf, std::span<const T> column) {
  AppendRaw(buf, column.data(), column.size() * sizeof(T));
  AppendPadding(buf);
}

// Copies a column out of the payload into an owning vector (bulk loader).
template <typename T>
Status ReadColumn(std::string_view buf, size_t* pos, size_t count,
                  std::vector<T>* out, const char* what) {
  const size_t bytes = count * sizeof(T);
  if (bytes > buf.size() || *pos > buf.size() - bytes) {
    return Status::IoError(std::string("snapshot truncated in ") + what);
  }
  out->resize(count);
  if (bytes > 0) std::memcpy(out->data(), buf.data() + *pos, bytes);
  *pos += Padded(bytes);
  return Status::OK();
}

// Points a span at a column in place (mapped loader). Every section start
// is 8-aligned within the payload and the mapping itself is page-aligned,
// so the alignment check only fires on hand-corrupted inputs — but a
// misaligned reinterpret_cast would be UB, so it is a hard error (the
// caller falls back to the bulk loader).
template <typename T>
Status BorrowColumn(std::string_view buf, size_t* pos, size_t count,
                    std::span<const T>* out, const char* what) {
  const size_t bytes = count * sizeof(T);
  if (bytes > buf.size() || *pos > buf.size() - bytes) {
    return Status::IoError(std::string("snapshot truncated in ") + what);
  }
  const char* p = buf.data() + *pos;
  if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
    return Status::IoError(std::string("snapshot column misaligned: ") + what);
  }
  *out = {reinterpret_cast<const T*>(p), count};
  *pos += Padded(bytes);
  return Status::OK();
}

Status ValidateOffsets(std::span<const size_t> offsets, size_t num_arcs,
                       const char* what) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != num_arcs) {
    return Status::IoError(std::string(what) + " do not span the arc count");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IoError(std::string(what) + " are not monotone");
    }
  }
  return Status::OK();
}

Status ValidateEndpoints(std::span<const NodeId> endpoints, size_t num_nodes,
                         const char* what) {
  for (NodeId v : endpoints) {
    if (v >= num_nodes) {
      return Status::IoError(std::string(what) + " endpoint out of range");
    }
  }
  return Status::OK();
}

// Parses the length-prefixed type-name block (shared by both loaders; type
// names are always owned strings, even on the mapped path).
Status ParseTypeNames(std::string_view payload, uint64_t num_types,
                      uint64_t type_block_bytes,
                      std::vector<std::string>* names) {
  if (type_block_bytes > payload.size()) {
    return Status::IoError("snapshot truncated in type names");
  }
  size_t pos = 0;
  names->reserve(num_types);
  for (uint64_t t = 0; t < num_types; ++t) {
    uint32_t len = 0;
    if (pos + sizeof(len) > type_block_bytes) {
      return Status::IoError("snapshot type-name block truncated");
    }
    std::memcpy(&len, payload.data() + pos, sizeof(len));
    pos += sizeof(len);
    if (len > type_block_bytes - pos) {
      return Status::IoError("snapshot type name overruns its block");
    }
    names->emplace_back(payload.data() + pos, len);
    pos += len;
  }
  if (type_block_bytes - pos >= 8) {
    return Status::IoError("snapshot type-name block has slack");
  }
  return Status::OK();
}

}  // namespace

// Friend of Graph: packs and unpacks the frozen columns without a
// GraphBuilder replay, either copying them (Deserialize) or aliasing them
// inside a MappedSnapshot (DeserializeBorrowed).
class SnapshotCodec {
 public:
  // Everything after the 64-byte header. Reads through the column views, so
  // mapped graphs serialize the same as owning ones.
  static std::string SerializePayload(const Graph& g) {
    std::string payload;
    payload.reserve(g.MemoryBytes() + 64 * g.type_names().size());
    for (const std::string& name : g.type_names()) {
      AppendU<uint32_t>(&payload, static_cast<uint32_t>(name.size()));
      AppendRaw(&payload, name.data(), name.size());
    }
    AppendPadding(&payload);  // type_block_bytes ends 8-aligned
    AppendColumn(&payload, g.node_types());
    AppendColumn(&payload, g.out_offsets());
    AppendColumn(&payload, g.out_targets());
    AppendColumn(&payload, g.out_arc_weights());
    AppendColumn(&payload, g.out_probs());
    AppendColumn(&payload, g.out_weights());
    AppendColumn(&payload, g.in_offsets());
    AppendColumn(&payload, g.in_sources());
    AppendColumn(&payload, g.in_arc_weights());
    AppendColumn(&payload, g.in_probs());
    return payload;
  }

  static size_t TypeBlockBytes(const Graph& g) {
    size_t bytes = 0;
    for (const std::string& name : g.type_names()) {
      bytes += sizeof(uint32_t) + name.size();
    }
    return Padded(bytes);
  }

  // Structural validation over the bound views: a load that returns OK must
  // yield a graph every consumer can traverse without bounds checks.
  static Status ValidateGraph(const Graph& g, uint64_t num_types,
                              uint64_t num_nodes, uint64_t num_arcs) {
    for (NodeTypeId t : g.node_types()) {
      if (t >= num_types) return Status::IoError("snapshot node type invalid");
    }
    RTR_RETURN_IF_ERROR(ValidateOffsets(g.out_offsets(), num_arcs,
                                        "snapshot out-offsets"));
    RTR_RETURN_IF_ERROR(ValidateOffsets(g.in_offsets(), num_arcs,
                                        "snapshot in-offsets"));
    RTR_RETURN_IF_ERROR(ValidateEndpoints(g.out_targets(), num_nodes,
                                          "snapshot out-arc"));
    RTR_RETURN_IF_ERROR(ValidateEndpoints(g.in_sources(), num_nodes,
                                          "snapshot in-arc"));
    return Status::OK();
  }

  static StatusOr<Graph> Deserialize(uint64_t num_types, uint64_t num_nodes,
                                     uint64_t num_arcs,
                                     uint64_t type_block_bytes,
                                     std::string_view payload) {
    Graph g;
    RTR_RETURN_IF_ERROR(
        ParseTypeNames(payload, num_types, type_block_bytes, &g.type_names_));
    size_t pos = type_block_bytes;

    RTR_RETURN_IF_ERROR(
        ReadColumn(payload, &pos, num_nodes, &g.node_types_, "node types"));
    RTR_RETURN_IF_ERROR(ReadColumn(payload, &pos, num_nodes + 1,
                                   &g.out_offsets_, "out offsets"));
    RTR_RETURN_IF_ERROR(
        ReadColumn(payload, &pos, num_arcs, &g.out_targets_, "out targets"));
    RTR_RETURN_IF_ERROR(ReadColumn(payload, &pos, num_arcs,
                                   &g.out_arc_weights_, "out weights"));
    RTR_RETURN_IF_ERROR(
        ReadColumn(payload, &pos, num_arcs, &g.out_probs_, "out probs"));
    RTR_RETURN_IF_ERROR(ReadColumn(payload, &pos, num_nodes, &g.out_weights_,
                                   "node out-weights"));
    RTR_RETURN_IF_ERROR(ReadColumn(payload, &pos, num_nodes + 1,
                                   &g.in_offsets_, "in offsets"));
    RTR_RETURN_IF_ERROR(
        ReadColumn(payload, &pos, num_arcs, &g.in_sources_, "in sources"));
    RTR_RETURN_IF_ERROR(ReadColumn(payload, &pos, num_arcs,
                                   &g.in_arc_weights_, "in weights"));
    RTR_RETURN_IF_ERROR(
        ReadColumn(payload, &pos, num_arcs, &g.in_probs_, "in probs"));
    if (pos != payload.size()) {
      return Status::IoError("snapshot has trailing garbage");
    }
    g.RebindViews();
    RTR_RETURN_IF_ERROR(ValidateGraph(g, num_types, num_nodes, num_arcs));
    return g;
  }

  // Zero-copy twin of Deserialize: binds the column views straight into the
  // mapped payload and stores `mapping` to keep the pages alive. Only the
  // type names are copied out (owned strings).
  static StatusOr<Graph> DeserializeBorrowed(
      uint64_t num_types, uint64_t num_nodes, uint64_t num_arcs,
      uint64_t type_block_bytes, std::string_view payload,
      std::shared_ptr<const MappedSnapshot> mapping) {
    Graph g;
    RTR_RETURN_IF_ERROR(
        ParseTypeNames(payload, num_types, type_block_bytes, &g.type_names_));
    size_t pos = type_block_bytes;

    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_nodes,
                                     &g.node_types_view_, "node types"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_nodes + 1,
                                     &g.out_offsets_view_, "out offsets"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.out_targets_view_, "out targets"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.out_arc_weights_view_,
                                     "out weights"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.out_probs_view_, "out probs"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_nodes,
                                     &g.out_weights_view_,
                                     "node out-weights"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_nodes + 1,
                                     &g.in_offsets_view_, "in offsets"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.in_sources_view_, "in sources"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.in_arc_weights_view_, "in weights"));
    RTR_RETURN_IF_ERROR(BorrowColumn(payload, &pos, num_arcs,
                                     &g.in_probs_view_, "in probs"));
    if (pos != payload.size()) {
      return Status::IoError("snapshot has trailing garbage");
    }
    g.mapping_ = std::move(mapping);
    RTR_RETURN_IF_ERROR(ValidateGraph(g, num_types, num_nodes, num_arcs));
    return g;
  }
};

Status SaveGraphSnapshot(const Graph& g, std::ostream& out,
                         uint64_t generation) {
  const std::string payload = SnapshotCodec::SerializePayload(g);

  std::string header;
  header.reserve(kHeaderBytes);
  AppendRaw(&header, kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU<uint32_t>(&header, kSnapshotVersion);
  AppendU<uint32_t>(&header, static_cast<uint32_t>(kHeaderBytes));
  AppendU<uint64_t>(&header, g.type_names().size());
  AppendU<uint64_t>(&header, g.num_nodes());
  AppendU<uint64_t>(&header, g.num_arcs());
  AppendU<uint64_t>(&header, SnapshotCodec::TypeBlockBytes(g));
  AppendU<uint64_t>(&header, Fnv1a64Words(payload.data(), payload.size()));
  AppendU<uint64_t>(&header, generation);
  DCHECK_EQ(header.size(), kHeaderBytes);

  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) return Status::IoError("failed writing snapshot stream");
  return Status::OK();
}

Status SaveGraphSnapshotToFile(const Graph& g, const std::string& path,
                               uint64_t generation) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  return SaveGraphSnapshot(g, out, generation);
}

namespace {

struct SnapshotHeader {
  SnapshotFileInfo info;
  uint64_t type_block_bytes = 0;
  // Size of a v3 file's two trailing f32 sections: counted by the size
  // check and the checksum, never loaded.
  uint64_t skipped_bytes = 0;
  Status status = Status::OK();
};

// Parses and validates the fixed 64-byte header; `buf` may be just the
// header (ReadSnapshotFileInfo) or the whole file.
SnapshotHeader ParseSnapshotHeader(std::string_view buf) {
  SnapshotHeader h;
  if (buf.size() < kHeaderBytes) {
    h.status = Status::IoError("snapshot shorter than its header");
    return h;
  }
  if (std::memcmp(buf.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    h.status = Status::IoError("bad snapshot magic");
    return h;
  }
  uint32_t version = 0, header_bytes = 0;
  std::memcpy(&version, buf.data() + 8, sizeof(version));
  std::memcpy(&header_bytes, buf.data() + 12, sizeof(header_bytes));
  if (version < kMinSnapshotVersion || version > kMaxSnapshotVersion) {
    h.status = Status::IoError("unsupported snapshot version " +
                               std::to_string(version));
    return h;
  }
  if (header_bytes != kHeaderBytes) {
    h.status = Status::IoError("bad snapshot header size");
    return h;
  }
  uint64_t fields[6];
  std::memcpy(fields, buf.data() + 16, sizeof(fields));
  h.info.version = version;
  h.info.num_types = fields[0];
  h.info.num_nodes = fields[1];
  h.info.num_arcs = fields[2];
  h.type_block_bytes = fields[3];
  h.info.payload_checksum = fields[4];
  // v1 wrote a zeroed reserved word where v2 keeps the generation id; either
  // way the value is the generation the file represents.
  h.info.generation = fields[5];
  if (version < 2 && h.info.generation != 0) {
    h.status = Status::IoError("v1 snapshot has nonzero reserved field");
  }
  return h;
}

// Header parse + range checks + exact-size check, shared by the bulk and
// mapped loaders. On OK, `payload` views everything after the header
// (the checksummed bytes, including any v3 sections to skip).
Status CheckSnapshotShape(std::string_view buf, SnapshotHeader* header,
                          std::string_view* payload) {
  *header = ParseSnapshotHeader(buf);
  RTR_RETURN_IF_ERROR(header->status);
  const uint64_t num_types = header->info.num_types;
  const uint64_t num_nodes = header->info.num_nodes;
  const uint64_t num_arcs = header->info.num_arcs;
  const uint64_t type_block_bytes = header->type_block_bytes;

  // Range checks before any size arithmetic. NodeId is u32: a node count at
  // or beyond kInvalidNode cannot be indexed (u32 overflow guard).
  if (num_nodes >= kInvalidNode) {
    return Status::IoError("snapshot node count overflows NodeId");
  }
  if (num_types == 0 || num_types > std::numeric_limits<NodeTypeId>::max()) {
    return Status::IoError("snapshot type count out of range");
  }
  if (num_arcs > kMaxSnapshotArcs) {
    return Status::IoError("snapshot arc count out of range");
  }
  if (type_block_bytes % 8 != 0 || type_block_bytes > buf.size()) {
    return Status::IoError("snapshot type-name block size invalid");
  }

  // Exact-size check: truncated and oversized (trailing-garbage) files are
  // both rejected before the checksum pass.
  uint64_t expected_payload =
      type_block_bytes + Padded(num_nodes * sizeof(NodeTypeId)) +
      2 * ((num_nodes + 1) * sizeof(uint64_t)) +     // offsets
      2 * Padded(num_arcs * sizeof(NodeId)) +        // targets + sources
      4 * (num_arcs * sizeof(double)) +              // arc weights + probs
      num_nodes * sizeof(double);                    // per-node out-weights
  if (header->info.version == 3) {
    header->skipped_bytes = 2 * Padded(num_arcs * sizeof(float));
  }
  expected_payload += header->skipped_bytes;
  if (buf.size() - kHeaderBytes != expected_payload) {
    return Status::IoError(
        buf.size() - kHeaderBytes < expected_payload
            ? "snapshot truncated (arc/node counts disagree with file size)"
            : "snapshot has trailing garbage");
  }
  *payload = std::string_view(buf.data() + kHeaderBytes,
                              buf.size() - kHeaderBytes);
  return Status::OK();
}

StatusOr<Graph> LoadGraphSnapshotBuffer(std::string_view buf,
                                        uint64_t* generation) {
  SnapshotHeader header;
  std::string_view payload;
  RTR_RETURN_IF_ERROR(CheckSnapshotShape(buf, &header, &payload));
  if (Fnv1a64Words(payload.data(), payload.size()) !=
      header.info.payload_checksum) {
    return Status::IoError("snapshot checksum mismatch");
  }
  StatusOr<Graph> g = SnapshotCodec::Deserialize(
      header.info.num_types, header.info.num_nodes, header.info.num_arcs,
      header.type_block_bytes,
      payload.substr(0, payload.size() - header.skipped_bytes));
  if (g.ok() && generation != nullptr) *generation = header.info.generation;
  return g;
}

}  // namespace

StatusOr<Graph> LoadGraphSnapshot(std::istream& in, uint64_t* generation) {
  std::string buf(std::istreambuf_iterator<char>(in), {});
  return LoadGraphSnapshotBuffer(buf, generation);
}

StatusOr<Graph> LoadGraphSnapshotFromFile(const std::string& path,
                                          uint64_t* generation) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for read: " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) {
    return Status::IoError("cannot determine snapshot size: " + path);
  }
  in.seekg(0);
  // One bulk read of the whole file; the columns are then block-copied into
  // place (see SnapshotCodec::Deserialize) with no per-arc work.
  std::string buf(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(buf.data(), size)) {
    return Status::IoError("failed reading snapshot: " + path);
  }
  return LoadGraphSnapshotBuffer(buf, generation);
}

MappedSnapshot::~MappedSnapshot() {
#if defined(RTR_HAVE_MMAP)
  if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
}

StatusOr<std::shared_ptr<const MappedSnapshot>> MappedSnapshot::Map(
    const std::string& path) {
  if (g_mmap_fail_for_testing) {
    return Status::IoError("mmap failure injected for testing");
  }
#if defined(RTR_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for mmap: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("cannot mmap non-regular file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::IoError("cannot mmap empty file: " + path);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path);
  }
  // Advisory only: tells readahead the whole snapshot is about to be
  // touched. First-touch latency stays O(page faults) either way.
  ::madvise(addr, size, MADV_WILLNEED);
  return std::shared_ptr<const MappedSnapshot>(new MappedSnapshot(addr, size));
#else
  return Status::IoError("mmap is not supported on this platform");
#endif
}

void SetMmapFailForTesting(bool fail) { g_mmap_fail_for_testing = fail; }

StatusOr<Graph> LoadGraphMapped(const std::string& path,
                                uint64_t* generation) {
  StatusOr<std::shared_ptr<const MappedSnapshot>> mapped =
      MappedSnapshot::Map(path);
  RTR_RETURN_IF_ERROR(mapped.status());
  std::shared_ptr<const MappedSnapshot> mapping = std::move(mapped).value();
  const std::string_view buf(mapping->data(), mapping->size());
  SnapshotHeader header;
  std::string_view payload;
  RTR_RETURN_IF_ERROR(CheckSnapshotShape(buf, &header, &payload));
  // The full checksum would fault in every page up front, defeating the
  // zero-copy cold start; structural validation below still touches the
  // header, offsets, endpoint and node-type pages. RTR_MMAP_VERIFY=1 forces
  // the integrity pass for operators who want it.
  if (EnvFlagSet("RTR_MMAP_VERIFY") &&
      Fnv1a64Words(payload.data(), payload.size()) !=
          header.info.payload_checksum) {
    return Status::IoError("snapshot checksum mismatch");
  }
  StatusOr<Graph> g = SnapshotCodec::DeserializeBorrowed(
      header.info.num_types, header.info.num_nodes, header.info.num_arcs,
      header.type_block_bytes,
      payload.substr(0, payload.size() - header.skipped_bytes),
      std::move(mapping));
  if (g.ok() && generation != nullptr) *generation = header.info.generation;
  return g;
}

StatusOr<SnapshotFileInfo> ReadSnapshotFileInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string buf(kHeaderBytes, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.resize(static_cast<size_t>(in.gcount()));
  SnapshotHeader header = ParseSnapshotHeader(buf);
  RTR_RETURN_IF_ERROR(header.status);
  return header.info;
}

StatusOr<bool> IsSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  char magic[sizeof(kSnapshotMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0;
}

namespace {

MapMode ResolveMapMode(MapMode mode) {
  if (mode != MapMode::kAuto) return mode;
  return EnvFlagSet("RTR_GRAPH_MMAP") ? MapMode::kPrefer : MapMode::kNever;
}

}  // namespace

StatusOr<Graph> LoadGraphAuto(const std::string& path, uint64_t* generation,
                              MapMode map_mode) {
  StatusOr<bool> is_snapshot = IsSnapshotFile(path);
  RTR_RETURN_IF_ERROR(is_snapshot.status());
  if (*is_snapshot) {
    const MapMode mode = ResolveMapMode(map_mode);
    if (mode == MapMode::kRequire) return LoadGraphMapped(path, generation);
    if (mode == MapMode::kPrefer) {
      StatusOr<Graph> mapped = LoadGraphMapped(path, generation);
      if (mapped.ok()) return mapped;
      LOG(WARNING) << "mmap load of " << path << " failed ("
                   << mapped.status().ToString()
                   << "); falling back to bulk read";
      obs::MetricsRegistry::Default()
          .GetCounter("rtr_store_mmap_fallbacks")
          ->Increment();
    }
    return LoadGraphSnapshotFromFile(path, generation);
  }
  if (generation != nullptr) *generation = 0;
  return LoadGraphFromFile(path);
}

}  // namespace rtr
