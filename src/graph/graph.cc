#include "graph/graph.h"

#include <utility>

#include "graph/builder.h"

namespace rtr {

Graph Graph::Bind(std::vector<std::string> type_names, Columns columns) {
  auto c = std::make_shared<Columns>(std::move(columns));
  Graph g;
  g.type_names_ = std::move(type_names);
  g.node_types_ = c->node_types;
  g.out_offsets_ = c->out_offsets;
  g.out_targets_ = c->out_targets;
  g.out_arc_weights_ = c->out_arc_weights;
  g.out_probs_ = c->out_probs;
  g.out_weights_ = c->out_weights;
  g.in_offsets_ = c->in_offsets;
  g.in_sources_ = c->in_sources;
  g.in_arc_weights_ = c->in_arc_weights;
  g.in_probs_ = c->in_probs;
  g.storage_ = std::move(c);
  return g;
}

double Graph::TransitionProb(NodeId u, NodeId v) const {
  DCHECK_LT(u, num_nodes());
  const size_t begin = out_offsets_[u];
  const size_t end = out_offsets_[u + 1];
  for (size_t i = begin; i < end; ++i) {
    if (out_targets_[i] == v) return out_probs_[i];
  }
  return 0.0;
}

std::vector<NodeId> Graph::NodesOfType(NodeTypeId t) const {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (node_types_[v] == t) nodes.push_back(v);
  }
  return nodes;
}

Graph UniformWeightCopy(const Graph& g) {
  GraphBuilder builder;
  for (const std::string& name : g.type_names()) builder.AddNodeType(name);
  for (NodeId v = 0; v < g.num_nodes(); ++v) builder.AddNode(g.node_type(v));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId target : g.out_targets(v)) {
      builder.AddDirectedEdge(v, target, 1.0);
    }
  }
  return builder.Build().value();
}

size_t Graph::MemoryBytes() const {
  size_t bytes = 0;
  bytes += node_types_.size() * sizeof(NodeTypeId);
  bytes += (out_offsets_.size() + in_offsets_.size()) * sizeof(size_t);
  bytes += (out_targets_.size() + in_sources_.size()) * sizeof(NodeId);
  bytes += (out_arc_weights_.size() + in_arc_weights_.size()) *
           sizeof(double);
  bytes += (out_probs_.size() + in_probs_.size()) * sizeof(double);
  bytes += out_weights_.size() * sizeof(double);
  return bytes;
}

}  // namespace rtr
