#ifndef RTR_GRAPH_BUILDER_H_
#define RTR_GRAPH_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace rtr {

struct GraphDelta;

// Mutable staging area for constructing a Graph.
//
// Usage:
//   GraphBuilder b;
//   NodeTypeId paper = b.AddNodeType("paper");
//   NodeId p = b.AddNode(paper);
//   b.AddDirectedEdge(p, q, 1.0);
//   b.AddUndirectedEdge(p, a, 1.0);       // materialized as two arcs
//   StatusOr<Graph> g = b.Build();
//
// Parallel arcs between the same ordered pair are merged by summing weights
// in staging order.
// Self-loops are permitted (they occur in the paper's toy example only via
// round trips, not arcs, but nothing forbids them structurally).
class GraphBuilder {
 public:
  GraphBuilder();

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;
  GraphBuilder(GraphBuilder&&) = default;
  GraphBuilder& operator=(GraphBuilder&&) = default;

  // Registers a node type and returns its id. Registering an existing name
  // returns the previously assigned id. Type id 0 is pre-registered as
  // "untyped".
  NodeTypeId AddNodeType(std::string_view name);

  // Adds a node of the given (already registered) type; returns its id.
  NodeId AddNode(NodeTypeId type = kUntypedNode);

  // Adds `count` nodes of the given type; returns the id of the first.
  NodeId AddNodes(size_t count, NodeTypeId type = kUntypedNode);

  // Adds a directed arc u -> v with weight w (must be > 0).
  void AddDirectedEdge(NodeId u, NodeId v, double w);

  // Adds arcs u -> v and v -> u, each with weight w.
  void AddUndirectedEdge(NodeId u, NodeId v, double w);

  size_t num_nodes() const { return node_types_.size(); }
  size_t num_staged_arcs() const { return arcs_.size(); }

  // Validates and freezes into an immutable CSR Graph. Fails with
  // InvalidArgument on out-of-range endpoints or non-positive weights
  // (detected eagerly in AddDirectedEdge via DCHECK, and re-validated here).
  StatusOr<Graph> Build() const;

 private:
  // The one column assembler behind Build(), ApplyDelta() and
  // UniformWeightCopy(). Takes frozen out-rows — each row's targets strictly
  // increasing (parallel arcs already merged), every weight positive — and
  // derives the rest: per-node weight totals summed in target order,
  // out-probs w / total, and the in-CSR by one counting pass over the
  // out-rows, so each in-row lists its sources in ascending order and copies
  // the out-side probability. The input contract is DCHECKed.
  static Graph Freeze(std::vector<std::string> type_names,
                      std::vector<NodeTypeId> node_types,
                      std::vector<size_t> out_offsets,
                      std::vector<NodeId> out_targets,
                      std::vector<double> out_arc_weights);
  friend StatusOr<Graph> ApplyDelta(const Graph& base,
                                    const GraphDelta& delta);
  friend Graph UniformWeightCopy(const Graph& g);

  struct StagedArc {
    NodeId source;
    NodeId target;
    double weight;
  };

  std::vector<NodeTypeId> node_types_;
  std::vector<std::string> type_names_;
  std::vector<StagedArc> arcs_;
};

}  // namespace rtr

#endif  // RTR_GRAPH_BUILDER_H_
