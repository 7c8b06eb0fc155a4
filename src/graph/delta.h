#ifndef RTR_GRAPH_DELTA_H_
#define RTR_GRAPH_DELTA_H_

// Incremental graph maintenance (DESIGN.md §8): a GraphDelta describes the
// difference between two consecutive graph generations — appended nodes and
// node types, removed arcs, inserted arcs — and ApplyDelta() turns
// generation g into generation g+1 without replaying the whole
// GraphBuilder pipeline. The growth experiments (Figs. 12-13) and the live
// serving path (graph/store.h) both feed on this: arcs arrive while
// queries are in flight, and each batch of arrivals becomes one delta.
//
// The maintenance idiom is "update derived state, don't recompute it":
// only the CSR rows a delta touches are re-merged and re-normalized
// (transition probabilities are derived from per-source weight totals, so
// a changed source invalidates exactly its own out-row and its targets'
// in-row entries); every untouched row is block-copied verbatim. Applied
// work is O(|delta| + arcs incident to touched nodes) on top of the
// unavoidable column copy into the new immutable generation.
//
// Bit-identity contract (gtest-enforced): the graph produced by ApplyDelta
// is column-for-column bit-identical to a from-scratch GraphBuilder build
// of the same logical graph, so rankings computed on an incrementally
// built generation match a full rebuild exactly.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace rtr {

// One arc insertion. Inserting over an existing arc adds to its weight
// (GraphBuilder's parallel-arc merge semantics); inserting an arc removed
// by the same delta re-adds it fresh with this weight.
struct ArcInsert {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
  double weight = 0.0;

  bool operator==(const ArcInsert&) const = default;
};

// One arc removal. The arc must exist in the base generation.
struct ArcRemove {
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;

  bool operator==(const ArcRemove&) const = default;
};

// A batch of mutations taking generation `base_generation` to the next
// one. Application order within the delta: types and nodes are appended
// first, then every removal, then every insertion (so remove-then-readd
// replaces an arc's weight instead of accumulating into it). Node ids are
// append-only — deltas never delete or renumber nodes, matching the
// datasets' cumulative snapshots (papers are published, never unwritten).
struct GraphDelta {
  uint64_t base_generation = 0;

  // New node types, appended after the base graph's type table.
  std::vector<std::string> added_type_names;
  // Types of the nodes this delta appends; node ids are assigned densely
  // from base.num_nodes(). Each type indexes the base table extended by
  // added_type_names.
  std::vector<NodeTypeId> added_node_types;

  std::vector<ArcRemove> removed_arcs;
  std::vector<ArcInsert> added_arcs;

  bool Empty() const {
    return added_type_names.empty() && added_node_types.empty() &&
           removed_arcs.empty() && added_arcs.empty();
  }
  size_t NumOps() const {
    return added_node_types.size() + removed_arcs.size() + added_arcs.size();
  }
};

// Applies `delta` to `base`, producing the next generation's Graph.
// Fails with InvalidArgument (leaving no partial state) on:
//   - an arc endpoint outside the post-append node range (dangling
//     source/target),
//   - removal of an arc the base (minus earlier removals) does not have,
//   - duplicate removal of the same arc,
//   - a non-positive insert weight,
//   - an added node whose type is outside the extended type table.
// Note: base_generation is NOT checked here — this is pure column algebra;
// the generation handshake lives in GraphStore::Apply and the delta-file
// loaders.
StatusOr<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta);

// Structural diff: the delta that turns `base` into `next`, assuming
// append-only evolution (next contains base's nodes as an id-stable prefix
// and base's type table as a prefix — the shape of the datasets' cumulative
// snapshots). Arc weight changes surface as remove + insert. Fails with
// InvalidArgument when `next` is not an append-only extension of `base`.
// ApplyDelta(base, DiffGraphs(base, next)) reproduces next's columns
// bit-identically whenever next itself came out of GraphBuilder.
StatusOr<GraphDelta> DiffGraphs(const Graph& base, const Graph& next);

// --------------------------------------------------------------------------
// On-disk delta files ("rtr-delt" version 2) — the v2 storage story:
// a base snapshot (graph/snapshot.h, generation id in the header) plus a
// chain of checksummed delta files lets a serving process catch up to the
// current generation from disk (GraphStore::CatchUp).
//
// Layout (little-endian, every section zero-padded to 8 bytes, written and
// read with util/bytes.h, the codec snapshots and RPC frames share):
//
//   header (64 bytes):
//     char[8]  magic            "rtr-delt"
//     u32      version          2
//     u32      header_bytes     64
//     u64      base_generation  generation this delta applies to
//     u64      num_added_types
//     u64      num_added_nodes
//     u64      num_removed_arcs
//     u64      num_added_arcs
//     u64      checksum         word-wise FNV-1a 64 (as snapshots) over
//                               header bytes [0, 56), then the payload
//   payload:
//     added type names          num_added_types x (u32 length + bytes), padded
//     added node types          num_added_nodes x u16, padded
//     removed arcs              num_removed_arcs x (u32 source, u32 target)
//     added arcs                num_added_arcs x (u32 source, u32 target,
//                               f64 weight)
//
// The loader validates magic, version, count ranges and exact file size
// before it allocates anything, then the checksum and zero padding, so
// truncated or corrupt delta files are rejected before application. All
// failures are Status::IoError. Because the checksum covers every header
// field, a delta that loads without a matching checksum rewrite is the
// delta that was saved. Only v2 is read or written: deltas are transient
// ingest files, not an archive.
// --------------------------------------------------------------------------

inline constexpr char kDeltaMagic[8] = {'r', 't', 'r', '-', 'd', 'e', 'l', 't'};
inline constexpr uint32_t kDeltaVersion = 2;

Status SaveGraphDelta(const GraphDelta& delta, std::ostream& out);
Status SaveGraphDeltaToFile(const GraphDelta& delta, const std::string& path);

StatusOr<GraphDelta> LoadGraphDelta(std::istream& in);
StatusOr<GraphDelta> LoadGraphDeltaFromFile(const std::string& path);

// True if `path` starts with the delta magic; IoError if it cannot be read
// at all. Files shorter than the magic are simply "not deltas".
StatusOr<bool> IsDeltaFile(const std::string& path);

// Header fields of a delta file without loading the ops — `rtr info` on a
// delta file.
struct DeltaFileInfo {
  uint32_t version = 0;
  uint64_t base_generation = 0;
  uint64_t num_added_types = 0;
  uint64_t num_added_nodes = 0;
  uint64_t num_removed_arcs = 0;
  uint64_t num_added_arcs = 0;
  uint64_t payload_checksum = 0;
};
StatusOr<DeltaFileInfo> ReadDeltaFileInfo(const std::string& path);

}  // namespace rtr

#endif  // RTR_GRAPH_DELTA_H_
