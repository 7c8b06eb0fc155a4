#include "graph/graph.h"

#include <utility>

#include "graph/builder.h"

namespace rtr {

void Graph::RebindViews() {
  node_types_view_ = node_types_;
  out_offsets_view_ = out_offsets_;
  out_targets_view_ = out_targets_;
  out_arc_weights_view_ = out_arc_weights_;
  out_probs_view_ = out_probs_;
  out_weights_view_ = out_weights_;
  in_offsets_view_ = in_offsets_;
  in_sources_view_ = in_sources_;
  in_arc_weights_view_ = in_arc_weights_;
  in_probs_view_ = in_probs_;
}

void Graph::RebindOwnedViews() {
  if (!node_types_.empty()) node_types_view_ = node_types_;
  if (!out_offsets_.empty()) out_offsets_view_ = out_offsets_;
  if (!out_targets_.empty()) out_targets_view_ = out_targets_;
  if (!out_arc_weights_.empty()) out_arc_weights_view_ = out_arc_weights_;
  if (!out_probs_.empty()) out_probs_view_ = out_probs_;
  if (!out_weights_.empty()) out_weights_view_ = out_weights_;
  if (!in_offsets_.empty()) in_offsets_view_ = in_offsets_;
  if (!in_sources_.empty()) in_sources_view_ = in_sources_;
  if (!in_arc_weights_.empty()) in_arc_weights_view_ = in_arc_weights_;
  if (!in_probs_.empty()) in_probs_view_ = in_probs_;
}

Graph::Graph(const Graph& other)
    : node_types_(other.node_types_),
      type_names_(other.type_names_),
      out_offsets_(other.out_offsets_),
      out_targets_(other.out_targets_),
      out_arc_weights_(other.out_arc_weights_),
      out_probs_(other.out_probs_),
      out_weights_(other.out_weights_),
      in_offsets_(other.in_offsets_),
      in_sources_(other.in_sources_),
      in_arc_weights_(other.in_arc_weights_),
      in_probs_(other.in_probs_),
      node_types_view_(other.node_types_view_),
      out_offsets_view_(other.out_offsets_view_),
      out_targets_view_(other.out_targets_view_),
      out_arc_weights_view_(other.out_arc_weights_view_),
      out_probs_view_(other.out_probs_view_),
      out_weights_view_(other.out_weights_view_),
      in_offsets_view_(other.in_offsets_view_),
      in_sources_view_(other.in_sources_view_),
      in_arc_weights_view_(other.in_arc_weights_view_),
      in_probs_view_(other.in_probs_view_),
      mapping_(other.mapping_) {
  // Borrowed views (into `mapping_`, shared above) carry over verbatim;
  // views over `other`'s vectors must re-anchor on this copy's vectors.
  RebindOwnedViews();
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) {
    Graph tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Graph Graph::MaterializeOwning() const {
  Graph g;
  g.type_names_ = type_names_;
  g.node_types_.assign(node_types_view_.begin(), node_types_view_.end());
  g.out_offsets_.assign(out_offsets_view_.begin(), out_offsets_view_.end());
  g.out_targets_.assign(out_targets_view_.begin(), out_targets_view_.end());
  g.out_arc_weights_.assign(out_arc_weights_view_.begin(),
                            out_arc_weights_view_.end());
  g.out_probs_.assign(out_probs_view_.begin(), out_probs_view_.end());
  g.out_weights_.assign(out_weights_view_.begin(), out_weights_view_.end());
  g.in_offsets_.assign(in_offsets_view_.begin(), in_offsets_view_.end());
  g.in_sources_.assign(in_sources_view_.begin(), in_sources_view_.end());
  g.in_arc_weights_.assign(in_arc_weights_view_.begin(),
                           in_arc_weights_view_.end());
  g.in_probs_.assign(in_probs_view_.begin(), in_probs_view_.end());
  g.RebindViews();
  return g;
}

double Graph::TransitionProb(NodeId u, NodeId v) const {
  DCHECK_LT(u, num_nodes());
  const size_t begin = out_offsets_view_[u];
  const size_t end = out_offsets_view_[u + 1];
  for (size_t i = begin; i < end; ++i) {
    if (out_targets_view_[i] == v) return out_probs_view_[i];
  }
  return 0.0;
}

std::vector<NodeId> Graph::NodesOfType(NodeTypeId t) const {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (node_types_view_[v] == t) nodes.push_back(v);
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
  bytes += node_types_view_.size() * sizeof(NodeTypeId);
  bytes += (out_offsets_view_.size() + in_offsets_view_.size()) *
           sizeof(size_t);
  bytes += (out_targets_view_.size() + in_sources_view_.size()) *
           sizeof(NodeId);
  bytes += (out_arc_weights_view_.size() + in_arc_weights_view_.size()) *
           sizeof(double);
  bytes += (out_probs_view_.size() + in_probs_view_.size()) * sizeof(double);
  bytes += out_weights_view_.size() * sizeof(double);
  return bytes;
}

}  // namespace rtr
