#include "graph/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
#include "util/bytes.h"

namespace rtr {
namespace {

// The format stores the size_t offset columns verbatim as u64 and writes
// multi-byte values in native order; rtr targets 64-bit little-endian.
static_assert(sizeof(size_t) == 8, "rtr-snap 2 assumes 64-bit size_t");
static_assert(std::endian::native == std::endian::little,
              "rtr-snap 2 assumes a little-endian host");

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

// The fixed 64-byte header, as laid out in graph/snapshot.h.
struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  uint64_t num_types;
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t type_block_bytes;
  uint64_t payload_checksum;
  uint64_t generation;
};
static_assert(sizeof(SnapshotHeader) == kHeaderBytes);

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

}  // namespace

// Friend of Graph: packs the frozen columns, and binds them back in place
// inside a snapshot image for both loaders.
class SnapshotCodec {
 public:
  // Everything after the 64-byte header, read through the column spans;
  // sets `*type_block_bytes` to the padded size of the type-name section.
  static std::string SerializePayload(const Graph& g,
                                      uint64_t* type_block_bytes) {
    std::string payload;
    payload.reserve(g.MemoryBytes() + 64 * g.type_names().size());
    ByteWriter w(&payload);
    for (const std::string& name : g.type_names()) w.String(name);
    w.PadTo8();
    *type_block_bytes = payload.size();
    auto column = [&w](auto values) {
      w.Items(values);
      w.PadTo8();
    };
    column(g.node_types());
    column(g.out_offsets());
    column(g.out_targets());
    column(g.out_arc_weights());
    column(g.out_probs());
    column(g.out_weights());
    column(g.in_offsets());
    column(g.in_sources());
    column(g.in_arc_weights());
    column(g.in_probs());
    return payload;
  }

  // Structural validation over the bound views: a load that returns OK must
  // yield a graph every consumer can traverse without bounds checks.
  static Status ValidateGraph(const Graph& g, const SnapshotHeader& h) {
    for (NodeTypeId t : g.node_types()) {
      if (t >= h.num_types) {
        return Status::IoError("snapshot node type invalid");
      }
    }
    RTR_RETURN_IF_ERROR(ValidateOffsets(g.out_offsets(), h.num_arcs,
                                        "snapshot out-offsets"));
    RTR_RETURN_IF_ERROR(ValidateOffsets(g.in_offsets(), h.num_arcs,
                                        "snapshot in-offsets"));
    RTR_RETURN_IF_ERROR(ValidateEndpoints(g.out_targets(), h.num_nodes,
                                          "snapshot out-arc"));
    RTR_RETURN_IF_ERROR(ValidateEndpoints(g.in_sources(), h.num_nodes,
                                          "snapshot in-arc"));
    return Status::OK();
  }

  // The column decoder of both loaders: binds every span straight into
  // `payload` and makes `storage`, which owns those bytes, the graph's
  // keep-alive. Only the type names are copied out (owned strings). Every
  // pad byte must be zero: mapped loads skip the checksum, so nothing else
  // guards them there.
  static StatusOr<Graph> Bind(const SnapshotHeader& h,
                              std::string_view payload,
                              std::shared_ptr<const void> storage,
                              bool mapped) {
    Graph g;
    ByteReader r(payload, "snapshot");
    std::string name;
    for (uint64_t t = 0; t < h.num_types && r.String(&name); ++t) {
      g.type_names_.push_back(name);
    }
    if (r.ZeroPadTo8() && r.offset() != h.type_block_bytes) {
      r.Fail("type-name block size disagrees with its header");
    }
    auto column = [&r](uint64_t count, auto* span) {
      r.View(count, span);
      r.ZeroPadTo8();
    };
    column(h.num_nodes, &g.node_types_);
    column(h.num_nodes + 1, &g.out_offsets_);
    column(h.num_arcs, &g.out_targets_);
    column(h.num_arcs, &g.out_arc_weights_);
    column(h.num_arcs, &g.out_probs_);
    column(h.num_nodes, &g.out_weights_);
    column(h.num_nodes + 1, &g.in_offsets_);
    column(h.num_arcs, &g.in_sources_);
    column(h.num_arcs, &g.in_arc_weights_);
    column(h.num_arcs, &g.in_probs_);
    r.End();
    RTR_RETURN_IF_ERROR(r.status());
    g.storage_ = std::move(storage);
    g.mapped_ = mapped;
    RTR_RETURN_IF_ERROR(ValidateGraph(g, h));
    return g;
  }
};

Status SaveGraphSnapshot(const Graph& g, std::ostream& out,
                         uint64_t generation) {
  SnapshotHeader h{};
  const std::string payload =
      SnapshotCodec::SerializePayload(g, &h.type_block_bytes);
  std::memcpy(h.magic, kSnapshotMagic, sizeof(h.magic));
  h.version = kSnapshotVersion;
  h.header_bytes = kHeaderBytes;
  h.num_types = g.type_names().size();
  h.num_nodes = g.num_nodes();
  h.num_arcs = g.num_arcs();
  h.payload_checksum = Fnv1a64Words(payload);
  h.generation = generation;
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
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

// Reads and validates the fixed 64-byte header; `buf` may be just the
// header (ReadSnapshotFileInfo) or the whole file.
Status ParseSnapshotHeader(std::string_view buf, SnapshotHeader* h) {
  ByteReader r(buf, "snapshot header");
  if (!r.Pod(h)) return r.status();
  if (std::memcmp(h->magic, kSnapshotMagic, sizeof(h->magic)) != 0) {
    return Status::IoError("bad snapshot magic");
  }
  if (h->version != kSnapshotVersion) {
    return Status::IoError("unsupported snapshot version " +
                           std::to_string(h->version));
  }
  if (h->header_bytes != kHeaderBytes) {
    return Status::IoError("bad snapshot header size");
  }
  return Status::OK();
}

// Header parse + range checks + exact-size check, shared by the bulk and
// mapped loaders. On OK, `payload` views everything after the header: the
// checksummed bytes, all of which Bind decodes.
Status CheckSnapshotShape(std::string_view buf, SnapshotHeader* h,
                          std::string_view* payload) {
  RTR_RETURN_IF_ERROR(ParseSnapshotHeader(buf, h));
  const uint64_t num_nodes = h->num_nodes;
  const uint64_t num_arcs = h->num_arcs;

  // Range checks before any size arithmetic. NodeId is u32: a node count at
  // or beyond kInvalidNode cannot be indexed (u32 overflow guard).
  if (num_nodes >= kInvalidNode) {
    return Status::IoError("snapshot node count overflows NodeId");
  }
  if (h->num_types == 0 ||
      h->num_types > std::numeric_limits<NodeTypeId>::max()) {
    return Status::IoError("snapshot type count out of range");
  }
  if (num_arcs > kMaxSnapshotArcs) {
    return Status::IoError("snapshot arc count out of range");
  }
  if (h->type_block_bytes % 8 != 0 || h->type_block_bytes > buf.size()) {
    return Status::IoError("snapshot type-name block size invalid");
  }

  // Exact-size check: truncated and oversized (trailing-garbage) files are
  // both rejected before the checksum pass.
  const uint64_t expected_payload =
      h->type_block_bytes + PadTo8(num_nodes * sizeof(NodeTypeId)) +
      2 * ((num_nodes + 1) * sizeof(uint64_t)) +     // offsets
      2 * PadTo8(num_arcs * sizeof(NodeId)) +        // targets + sources
      4 * (num_arcs * sizeof(double)) +              // arc weights + probs
      num_nodes * sizeof(double);                    // per-node out-weights
  if (buf.size() - kHeaderBytes != expected_payload) {
    return Status::IoError(
        buf.size() - kHeaderBytes < expected_payload
            ? "snapshot truncated (arc/node counts disagree with file size)"
            : "snapshot has trailing garbage");
  }
  *payload = buf.substr(kHeaderBytes);
  return Status::OK();
}

// Shape check, checksum and in-place binding, shared by both loaders.
// `buf` is the whole file and lives inside `storage`.
StatusOr<Graph> LoadSnapshotImage(std::string_view buf,
                                  std::shared_ptr<const void> storage,
                                  bool mapped, bool verify_checksum,
                                  uint64_t* generation) {
  SnapshotHeader header{};
  std::string_view payload;
  RTR_RETURN_IF_ERROR(CheckSnapshotShape(buf, &header, &payload));
  if (verify_checksum && Fnv1a64Words(payload) != header.payload_checksum) {
    return Status::IoError("snapshot checksum mismatch");
  }
  StatusOr<Graph> g =
      SnapshotCodec::Bind(header, payload, std::move(storage), mapped);
  if (g.ok() && generation != nullptr) *generation = header.generation;
  return g;
}

}  // namespace

StatusOr<Graph> LoadGraphSnapshotFromFile(const std::string& path,
                                          uint64_t* generation) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for read: " + path);
  const std::streamsize size = in.tellg();
  if (size < 0) {
    return Status::IoError("cannot determine snapshot size: " + path);
  }
  in.seekg(0);
  // One bulk read of the whole file into an 8-aligned heap image; the
  // columns are then bound in place exactly as they are in a mapping, with
  // no per-column copy and no per-arc work. Bulk loads always verify the
  // payload checksum.
  auto image = std::make_shared<std::vector<uint64_t>>(
      (static_cast<size_t>(size) + 7) / 8);
  if (size > 0 && !in.read(reinterpret_cast<char*>(image->data()), size)) {
    return Status::IoError("failed reading snapshot: " + path);
  }
  const std::string_view buf(reinterpret_cast<const char*>(image->data()),
                             static_cast<size_t>(size));
  return LoadSnapshotImage(buf, std::move(image), /*mapped=*/false,
                           /*verify_checksum=*/true, generation);
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
  // The full checksum would fault in every page up front, defeating the
  // zero-copy cold start; structural validation still touches the header,
  // offsets, endpoint and node-type pages. RTR_MMAP_VERIFY=1 forces the
  // integrity pass for operators who want it.
  return LoadSnapshotImage(buf, std::move(mapping), /*mapped=*/true,
                           EnvFlagSet("RTR_MMAP_VERIFY"), generation);
}

StatusOr<SnapshotFileInfo> ReadSnapshotFileInfo(const std::string& path) {
  StatusOr<std::string> head = ReadFilePrefix(path, kHeaderBytes);
  RTR_RETURN_IF_ERROR(head.status());
  SnapshotHeader h{};
  RTR_RETURN_IF_ERROR(ParseSnapshotHeader(*head, &h));
  return SnapshotFileInfo{h.version,  h.generation, h.num_types,
                          h.num_nodes, h.num_arcs,  h.payload_checksum};
}

StatusOr<bool> IsSnapshotFile(const std::string& path) {
  StatusOr<std::string> head = ReadFilePrefix(path, sizeof(kSnapshotMagic));
  RTR_RETURN_IF_ERROR(head.status());
  return *head == std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic));
}

namespace {

// Bulk reads after a failed map, process-wide. Leaked with its registration,
// so rtr_store_mmap_fallbacks appears on the first fallback and stays.
obs::Counter& MmapFallbacks() {
  struct Fallbacks {
    obs::Counter count;
    obs::MetricsRegistry::Registration registration =
        obs::MetricsRegistry::Default().RegisterCounter(
            "rtr_store_mmap_fallbacks", {}, &count);
  };
  static Fallbacks* fallbacks = new Fallbacks();
  return fallbacks->count;
}

}  // namespace

StatusOr<Graph> LoadGraphAuto(const std::string& path, uint64_t* generation,
                              MapMode map_mode) {
  StatusOr<bool> is_snapshot = IsSnapshotFile(path);
  RTR_RETURN_IF_ERROR(is_snapshot.status());
  if (*is_snapshot) {
    if (map_mode == MapMode::kPrefer) {
      StatusOr<Graph> mapped = LoadGraphMapped(path, generation);
      if (mapped.ok()) return mapped;
      LOG(WARNING) << "mmap load of " << path << " failed ("
                   << mapped.status().ToString()
                   << "); falling back to bulk read";
      MmapFallbacks().Increment();
    }
    return LoadGraphSnapshotFromFile(path, generation);
  }
  if (generation != nullptr) *generation = 0;
  return LoadGraphFromFile(path);
}

}  // namespace rtr
