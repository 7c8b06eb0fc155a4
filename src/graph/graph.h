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

class MappedSnapshot;  // graph/snapshot.h: RAII mmap of an rtr-snap file.

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
// Storage polymorphism: every column is exposed through a std::span view.
// A graph built by GraphBuilder (or bulk-loaded from a snapshot) owns its
// columns in std::vectors and the views alias those vectors. A graph loaded
// by LoadGraphMapped() instead borrows its views straight out of a
// MappedSnapshot (a read-only mmap of the rtr-snap file); the owning vectors
// stay empty and the mapping is kept alive by a shared_ptr held here, so
// copies of a mapped Graph share one physical copy of the columns. Use
// is_mapped() to tell the two apart and MaterializeOwning() to deep-copy a
// mapped graph into owning storage (required before any code path that
// assembles new columns in place, e.g. DeltaOps).
//
// Construct via GraphBuilder::Build() or LoadGraphSnapshot().
//
// Thread safety: a Graph never mutates after construction, and every member
// function is const and touches only the frozen columns. Any number of
// threads may therefore share one Graph with no synchronization — the
// contract the serving layer (serve::QueryService) relies on to run one
// graph under a worker pool.
class Graph {
 public:
  Graph() = default;

  // Copies rebind every owning column's view onto the copy's own vectors;
  // borrowed (mapped) columns stay borrowed and share the mapping.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  // Moves are cheap and safe: vector heap buffers are stable under move, so
  // the views transfer verbatim. The moved-from graph is only good for
  // destruction or reassignment (its views are unspecified).
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  size_t num_nodes() const { return node_types_view_.size(); }
  // Number of directed arcs (an undirected edge counts twice).
  size_t num_arcs() const { return out_targets_view_.size(); }

  NodeTypeId node_type(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return node_types_view_[v];
  }

  // Registered type names; index is the NodeTypeId.
  const std::vector<std::string>& type_names() const { return type_names_; }
  const std::string& type_name(NodeTypeId t) const {
    DCHECK_LT(t, type_names_.size());
    return type_names_[t];
  }

  size_t out_degree(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return out_offsets_view_[v + 1] - out_offsets_view_[v];
  }
  size_t in_degree(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return in_offsets_view_[v + 1] - in_offsets_view_[v];
  }

  // Per-node column spans. Entries at the same index within a node's spans
  // describe the same arc; out-columns are sorted by target (in-columns by
  // source) within each node.
  std::span<const NodeId> out_targets(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_targets_view_.data() + out_offsets_view_[v], out_degree(v)};
  }
  std::span<const double> out_probs(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_probs_view_.data() + out_offsets_view_[v], out_degree(v)};
  }
  std::span<const double> out_arc_weights(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {out_arc_weights_view_.data() + out_offsets_view_[v],
            out_degree(v)};
  }
  std::span<const NodeId> in_sources(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_sources_view_.data() + in_offsets_view_[v], in_degree(v)};
  }
  std::span<const double> in_probs(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_probs_view_.data() + in_offsets_view_[v], in_degree(v)};
  }
  std::span<const double> in_arc_weights(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return {in_arc_weights_view_.data() + in_offsets_view_[v], in_degree(v)};
  }

  // Whole-graph column views (snapshot I/O, shard extraction, column-equality
  // assertions in tests). The offsets arrays have num_nodes()+1 entries.
  std::span<const NodeTypeId> node_types() const { return node_types_view_; }
  std::span<const size_t> out_offsets() const { return out_offsets_view_; }
  std::span<const NodeId> out_targets() const { return out_targets_view_; }
  std::span<const double> out_probs() const { return out_probs_view_; }
  std::span<const double> out_arc_weights() const {
    return out_arc_weights_view_;
  }
  std::span<const double> out_weights() const { return out_weights_view_; }
  std::span<const size_t> in_offsets() const { return in_offsets_view_; }
  std::span<const NodeId> in_sources() const { return in_sources_view_; }
  std::span<const double> in_probs() const { return in_probs_view_; }
  std::span<const double> in_arc_weights() const {
    return in_arc_weights_view_;
  }

  // True when the columns borrow from a MappedSnapshot instead of owning
  // vectors. The spans stay valid for this Graph's lifetime either way.
  bool is_mapped() const { return mapping_ != nullptr; }

  // Deep-copies every column into owning vectors and drops the mapping
  // reference. Identity for graphs that already own their storage.
  Graph MaterializeOwning() const;

  // Total outgoing weight of v (0 for dangling nodes).
  double out_weight(NodeId v) const {
    DCHECK_LT(v, num_nodes());
    return out_weights_view_[v];
  }

  // Samples an out-neighbor of v by transition probability given one uniform
  // draw u in [0, 1): walks the cumulative probs and falls back to the last
  // target under floating-point round-off. Returns kInvalidNode when v is
  // dangling. The inner loop of every Monte-Carlo walker in the repo.
  NodeId SampleOutNeighbor(NodeId v, double u) const {
    DCHECK_LT(v, num_nodes());
    const size_t begin = out_offsets_view_[v];
    const size_t end = out_offsets_view_[v + 1];
    if (begin == end) return kInvalidNode;
    double acc = 0.0;
    for (size_t i = begin; i < end; ++i) {
      acc += out_probs_view_[i];
      if (u < acc) return out_targets_view_[i];
    }
    return out_targets_view_[end - 1];
  }

  // One-step transition probability M[u][v]; 0 if the arc does not exist.
  // O(out_degree(u)) lookup, intended for tests and small-scale tools.
  double TransitionProb(NodeId u, NodeId v) const;

  // All nodes of the given type, in id order.
  std::vector<NodeId> NodesOfType(NodeTypeId t) const;

  // Approximate resident size of the CSR structures in bytes; this is the
  // "snapshot size" metric of Fig. 12. For a mapped graph this counts the
  // borrowed (file-backed) bytes, which are shared across processes.
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
  // graph/snapshot.cc: reconstructs the frozen columns from a binary
  // snapshot without a GraphBuilder replay, or points the views straight
  // into a MappedSnapshot.
  friend class SnapshotCodec;
  // graph/delta.cc: assembles the next generation's columns from the
  // previous generation plus a GraphDelta, touching only mutated rows.
  friend class DeltaOps;

  // Points every view at its owning vector. Builders/codecs that fill the
  // vectors directly must call this before handing the Graph out.
  void RebindViews();
  // Rebinds only the views whose owning vector is non-empty; borrowed
  // (mapped or empty) columns keep the view they were copied with. Used by
  // the copy constructor, where owning columns must re-anchor on the copy's
  // own vectors.
  void RebindOwnedViews();

  // Owning storage. Empty for columns that borrow from `mapping_`.
  std::vector<NodeTypeId> node_types_;
  std::vector<std::string> type_names_;  // always owned

  std::vector<size_t> out_offsets_;       // size num_nodes()+1
  std::vector<NodeId> out_targets_;       // column: arc target
  std::vector<double> out_arc_weights_;   // column: raw arc weight
  std::vector<double> out_probs_;         // column: M[source][target]
  std::vector<double> out_weights_;       // per node: total out weight

  std::vector<size_t> in_offsets_;        // size num_nodes()+1
  std::vector<NodeId> in_sources_;        // column: arc source
  std::vector<double> in_arc_weights_;    // column: raw arc weight
  std::vector<double> in_probs_;          // column: M[source][this]

  // Column views: alias the vectors above, or borrow from `mapping_`.
  std::span<const NodeTypeId> node_types_view_;
  std::span<const size_t> out_offsets_view_;
  std::span<const NodeId> out_targets_view_;
  std::span<const double> out_arc_weights_view_;
  std::span<const double> out_probs_view_;
  std::span<const double> out_weights_view_;
  std::span<const size_t> in_offsets_view_;
  std::span<const NodeId> in_sources_view_;
  std::span<const double> in_arc_weights_view_;
  std::span<const double> in_probs_view_;
  // Keeps the mmap alive while any view borrows from it; null for graphs
  // that own all their columns.
  std::shared_ptr<const MappedSnapshot> mapping_;
};

// Returns a copy of `g` with every arc's weight replaced by 1 (transition
// probabilities become uniform over out-arcs). This is the authority-flow
// view used by the ObjectRank family, which transfers authority by link
// structure alone rather than by content-derived edge weights.
Graph UniformWeightCopy(const Graph& g);

}  // namespace rtr

#endif  // RTR_GRAPH_GRAPH_H_
