#ifndef RTR_GRAPH_SNAPSHOT_H_
#define RTR_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace rtr {

// Binary graph snapshots ("rtr-snap" version 2).
//
// A snapshot freezes a Graph's columnar CSR arrays verbatim so a process can
// come up without replaying text parsing + GraphBuilder sorting/merging. Two
// loaders share one decoder that points the Graph's column spans at the
// columns in place: LoadGraphSnapshotFromFile reads the file into an
// 8-aligned heap image and binds inside it, and LoadGraphMapped mmaps the
// file and binds inside the mapping (zero copy; see MappedSnapshot below).
// Layout (all integers little-endian, every section padded to an 8-byte
// boundary precisely so each column can be aliased in place):
//
//   header (64 bytes):
//     char[8]  magic            "rtr-snap"
//     u32      version          2
//     u32      header_bytes     64
//     u64      num_types
//     u64      num_nodes
//     u64      num_arcs
//     u64      type_block_bytes (padded size of the type-name section)
//     u64      payload_checksum (word-wise FNV-1a 64 over everything after
//                                the header; util/bytes.h Fnv1a64Words)
//     u64      generation       (graph/store.h generation id)
//   payload:
//     type names                num_types x (u32 length + bytes), padded
//     node_types                num_nodes x u16, padded
//     out_offsets               (num_nodes+1) x u64
//     out_targets               num_arcs x u32, padded
//     out_arc_weights           num_arcs x f64
//     out_probs                 num_arcs x f64
//     out_node_weights          num_nodes x f64
//     in_offsets                (num_nodes+1) x u64
//     in_sources                num_arcs x u32, padded
//     in_arc_weights            num_arcs x f64
//     in_probs                  num_arcs x f64
//
// Both loaders decode through util/bytes.h's bounds-checked ByteReader, the
// codec the delta files and RPC frames share. The bulk loader validates the
// magic, version, exact file size (truncated or oversized/trailing-garbage
// files are rejected), checksum, zero padding, offset monotonicity and
// endpoint/type ranges, so a load that returns OK yields a Graph
// bit-identical to the one saved. All failures are Status::IoError.
//
// The mapped loader performs the same structural validation, padding
// included (it touches the header, type-name, offsets, endpoints and
// node-type pages) but skips the full payload checksum by default —
// checksumming would fault in every page and defeat the O(page faults) cold
// start. Set RTR_MMAP_VERIFY=1 to force the checksum pass on mapped loads
// too; it is the only integrity check a mapped load has.
//
// Versioning: the loaders read exactly the version the writer emits. A
// file of any other version (the retired v1 and v3 included) is an
// IoError("unsupported snapshot version N"); `rtr convert` re-creates a
// current snapshot from a text graph. Together with delta files
// (graph/delta.h) this is the on-disk story for live graphs: one base
// snapshot per epoch plus a chain of deltas to catch up from.

inline constexpr char kSnapshotMagic[8] = {'r', 't', 'r', '-',
                                           's', 'n', 'a', 'p'};
// The one version the writer emits and the loaders read.
inline constexpr uint32_t kSnapshotVersion = 2;

Status SaveGraphSnapshot(const Graph& g, std::ostream& out,
                         uint64_t generation = 0);
Status SaveGraphSnapshotToFile(const Graph& g, const std::string& path,
                               uint64_t generation = 0);

// The bulk loader. `generation` (optional) receives the header's
// generation id when the load succeeds.
StatusOr<Graph> LoadGraphSnapshotFromFile(const std::string& path,
                                          uint64_t* generation = nullptr);

// A read-only mmap of an rtr-snap file. A Graph loaded by LoadGraphMapped
// keeps one of these alive via shared_ptr and points its column spans into
// the mapping, so the columns are file-backed: cold-start cost is O(page
// faults on first touch) and every process mapping the same file shares one
// physical copy. Unmapped (and thereby released) when the last referencing
// Graph goes away.
class MappedSnapshot {
 public:
  ~MappedSnapshot();
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  // Maps `path` read-only (MAP_PRIVATE) and advises the kernel the pages
  // will be needed (MADV_WILLNEED). IoError on platforms without mmap, on
  // open/stat/map failure, and on empty files.
  static StatusOr<std::shared_ptr<const MappedSnapshot>> Map(
      const std::string& path);

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }

 private:
  MappedSnapshot(void* addr, size_t size) : addr_(addr), size_(size) {}

  void* addr_ = nullptr;
  size_t size_ = 0;
};

// Test hook: forces MappedSnapshot::Map to fail, exercising the
// mmap-to-bulk-read fallback without an actually unmappable file.
void SetMmapFailForTesting(bool fail);

// How LoadGraphAuto brings a snapshot online. The caller chooses; nothing
// in the environment overrides it.
enum class MapMode {
  // Bulk read into a heap image (the default).
  kNever,
  // Try the mapped loader; on failure log a WARNING, bump the
  // `rtr_store_mmap_fallbacks` counter, and fall back to the bulk read.
  // mmap can fail (ENODEV, ENOMEM) on a file a plain read still loads.
  kPrefer,
};

// Zero-copy load: validates the header and structure, then returns a Graph
// whose columns borrow from the mapped file (Graph::is_mapped() == true).
// Skips the payload checksum unless RTR_MMAP_VERIFY=1 (see above).
StatusOr<Graph> LoadGraphMapped(const std::string& path,
                                uint64_t* generation = nullptr);

// Header fields of a snapshot without loading the columns — `rtr info` on a
// snapshot file.
struct SnapshotFileInfo {
  uint32_t version = 0;
  uint64_t generation = 0;
  uint64_t num_types = 0;
  uint64_t num_nodes = 0;
  uint64_t num_arcs = 0;
  uint64_t payload_checksum = 0;
};
StatusOr<SnapshotFileInfo> ReadSnapshotFileInfo(const std::string& path);

// True if `path` starts with the snapshot magic; IoError if it cannot be
// read at all. Files shorter than the magic are simply "not snapshots".
StatusOr<bool> IsSnapshotFile(const std::string& path);

// Loads a graph from either format, auto-detected by magic: binary
// snapshots go through the bulk or mapped snapshot loader per `map_mode`,
// everything else through the text loader (graph/io.h, never mapped).
// `generation` (optional) receives the snapshot header's generation id
// (text graphs are generation 0).
StatusOr<Graph> LoadGraphAuto(const std::string& path,
                              uint64_t* generation = nullptr,
                              MapMode map_mode = MapMode::kNever);

}  // namespace rtr

#endif  // RTR_GRAPH_SNAPSHOT_H_
