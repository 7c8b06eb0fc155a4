#ifndef RTR_GRAPH_GRAPH_H_
#define RTR_GRAPH_GRAPH_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace rtr {

// Immutable directed weighted graph in columnar (structure-of-arrays) CSR
// form, with both out- and in-adjacency and precomputed row-stochastic
// transition probabilities.
//
// Random-walk semantics (Sect. III of the paper): from node v the surfer
// moves to out-neighbor u with probability M[v][u] = w(v,u) / sum_u' w(v,u').
// Undirected edges are materialized as two arcs by the builder. Nodes with no
// out-arcs are "dangling": the walk terminates there (no mass redistributed),
// matching the iterative formulations in Eqs. 5 and 8.
//
// Storage layout: each adjacency direction is three parallel columns —
// endpoint ids (u32), raw weights (f64), transition probabilities (f64) —
// indexed by one offsets array. The online 2SBound phase is memory-bandwidth
// bound, and its hot loops only read (endpoint, prob); splitting the columns
// keeps the weight column out of the cache on those paths (12 bytes per arc
// streamed instead of the 24-byte arc records of the old AoS layout). The
// frozen columns are also exactly what the binary snapshot format
// (graph/snapshot.h) writes and reads verbatim.
//
// Storage: every column is a std::span over immutable bytes that a
// shared_ptr keeps alive. GraphBuilder::Build() and delta application
// (graph/delta.h) fill a Columns struct of vectors and move it behind that
// pointer; the bulk snapshot loader binds the spans in place inside its
// 8-aligned heap image of the file; LoadGraphMapped() binds them in place
// inside a MappedSnapshot (a read-only mmap of the rtr-snap file). The
// accessors cannot tell the three apart, and copying a Graph shares its
// columns in O(1) whatever their origin. is_mapped() reports whether the
// bytes are file-backed.
//
// Construct via GraphBuilder::Build(), ApplyDelta() or a snapshot loader.
//
// Thread safety: a Graph never mutates after construction, and every member
// function is const and touches only the frozen columns. Any number of
// threads may therefore share one Graph with no synchronization — the
// contract the serving layer (serve::QueryService) relies on to run one
// graph under a worker pool.
class Graph {
 public:
  size_t num_nodes() const { return node_types_.size(); }
  // Number of directed arcs (an undirected edge counts twice).
  size_t num_arcs() const { return out_targets_.size(); }

  NodeTypeId node_type(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return node_types_[v];
  }

  // Registered type names; index is the NodeTypeId.
  const std::vector<std::string>& type_names() const { return type_names_; }
  const std::string& type_name(NodeTypeId t) const {
    DCHECK_LT(t, type_names_.size());
    return type_names_[t];
  }

  size_t out_degree(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t in_degree(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  // Per-node column spans. Entries at the same index within a node's spans
  // describe the same arc; out-columns are sorted by target (in-columns by
  // source) within each node.
  std::span<const NodeId> out_targets(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_targets_.data() + out_offsets_[v], out_degree(v)};
  }
  std::span<const double> out_probs(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_probs_.data() + out_offsets_[v], out_degree(v)};
  }
  std::span<const double> out_arc_weights(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_arc_weights_.data() + out_offsets_[v], out_degree(v)};
  }
  std::span<const NodeId> in_sources(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_sources_.data() + in_offsets_[v], in_degree(v)};
  }
  std::span<const double> in_probs(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_probs_.data() + in_offsets_[v], in_degree(v)};
  }
  std::span<const double> in_arc_weights(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_arc_weights_.data() + in_offsets_[v], in_degree(v)};
  }

  // Whole-graph column views (snapshot I/O, shard extraction, column-equality
  // assertions in tests). The offsets arrays have num_nodes()+1 entries.
  std::span<const NodeTypeId> node_types() const { return node_types_; }
  std::span<const size_t> out_offsets() const { return out_offsets_; }
  std::span<const NodeId> out_targets() const { return out_targets_; }
  std::span<const double> out_probs() const { return out_probs_; }
  std::span<const double> out_arc_weights() const { return out_arc_weights_; }
  std::span<const double> out_weights() const { return out_weights_; }
  std::span<const size_t> in_offsets() const { return in_offsets_; }
  std::span<const NodeId> in_sources() const { return in_sources_; }
  std::span<const double> in_probs() const { return in_probs_; }
  std::span<const double> in_arc_weights() const { return in_arc_weights_; }

  // True when the columns are bound inside a MappedSnapshot. The spans stay
  // valid for this Graph's lifetime whatever the backing.
  bool is_mapped() const { return mapped_; }

  // Total outgoing weight of v (0 for dangling nodes).
  double out_weight(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return out_weights_[v];
  }

  // Samples an out-neighbor of v by transition probability given one uniform
  // draw u in [0, 1): walks the cumulative probs and falls back to the last
  // target under floating-point round-off. Returns kInvalidNode when v is
  // dangling. The inner loop of every Monte-Carlo walker in the repo.
  NodeId SampleOutNeighbor(NodeId v, double u) const {
    DCHECK_LT(v, num_nodes());
    const size_t begin = out_offsets_[v];
    const size_t end = out_offsets_[v + 1];
    if (begin == end) return kInvalidNode;
    double acc = 0.0;
    for (size_t i = begin; i < end; ++i) {
      acc += out_probs_[i];
      if (u < acc) return out_targets_[i];
    }
    return out_targets_[end - 1];
  }

  // One-step transition probability M[u][v]; 0 if the arc does not exist.
  // O(out_degree(u)) lookup, intended for tests and small-scale tools.
  double TransitionProb(NodeId u, NodeId v) const;

  // All nodes of the given type, in id order.
  std::vector<NodeId> NodesOfType(NodeTypeId t) const;

  // Approximate resident size of the CSR structures in bytes; this is the
  // "snapshot size" metric of Fig. 12. For a mapped graph this counts the
  // file-backed bytes, which are shared across processes.
  size_t MemoryBytes() const;

  // Average total degree (arcs / nodes), the D-bar of Sect. V-B1.
  double AverageDegree() const {
    return num_nodes() == 0
               ? 0.0
               : static_cast<double>(num_arcs()) /
                     static_cast<double>(num_nodes());
  }

 private:
  friend class GraphBuilder;
  // graph/snapshot.cc: binds the spans in place inside a snapshot image
  // (bulk-read or mapped) without a GraphBuilder replay.
  friend class SnapshotCodec;
  // graph/delta.cc: assembles the next generation's columns from the
  // previous generation plus a GraphDelta, touching only mutated rows.
  friend class DeltaOps;

  // Freshly assembled columns, before Bind() moves them behind the
  // keep-alive pointer.
  struct Columns {
    std::vector<NodeTypeId> node_types;
    std::vector<size_t> out_offsets;
    std::vector<NodeId> out_targets;
    std::vector<double> out_arc_weights;
    std::vector<double> out_probs;
    std::vector<double> out_weights;
    std::vector<size_t> in_offsets;
    std::vector<NodeId> in_sources;
    std::vector<double> in_arc_weights;
    std::vector<double> in_probs;
  };
  static Graph Bind(std::vector<std::string> type_names, Columns columns);

  std::vector<std::string> type_names_;

  std::span<const NodeTypeId> node_types_;
  std::span<const size_t> out_offsets_;       // size num_nodes()+1
  std::span<const NodeId> out_targets_;       // column: arc target
  std::span<const double> out_arc_weights_;   // column: raw arc weight
  std::span<const double> out_probs_;         // column: M[source][target]
  std::span<const double> out_weights_;       // per node: total out weight
  std::span<const size_t> in_offsets_;        // size num_nodes()+1
  std::span<const NodeId> in_sources_;        // column: arc source
  std::span<const double> in_arc_weights_;    // column: raw arc weight
  std::span<const double> in_probs_;          // column: M[source][this]

  // Owns the bytes every span above points into: a Columns, a bulk-read
  // image or a MappedSnapshot. Shared by copies.
  std::shared_ptr<const void> storage_;
  bool mapped_ = false;
};

// Returns a copy of `g` with every arc's weight replaced by 1 (transition
// probabilities become uniform over out-arcs). This is the authority-flow
// view used by the ObjectRank family, which transfers authority by link
// structure alone rather than by content-derived edge weights.
Graph UniformWeightCopy(const Graph& g);

}  // namespace rtr

#endif  // RTR_GRAPH_GRAPH_H_
