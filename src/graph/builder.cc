#include "graph/builder.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace rtr {

GraphBuilder::GraphBuilder() { type_names_.push_back("untyped"); }

NodeTypeId GraphBuilder::AddNodeType(std::string_view name) {
  for (size_t i = 0; i < type_names_.size(); ++i) {
    if (type_names_[i] == name) return static_cast<NodeTypeId>(i);
  }
  type_names_.emplace_back(name);
  return static_cast<NodeTypeId>(type_names_.size() - 1);
}

NodeId GraphBuilder::AddNode(NodeTypeId type) {
  DCHECK_LT(type, type_names_.size());
  node_types_.push_back(type);
  return static_cast<NodeId>(node_types_.size() - 1);
}

NodeId GraphBuilder::AddNodes(size_t count, NodeTypeId type) {
  CHECK_GT(count, 0u);
  NodeId first = static_cast<NodeId>(node_types_.size());
  node_types_.insert(node_types_.end(), count, type);
  return first;
}

void GraphBuilder::AddDirectedEdge(NodeId u, NodeId v, double w) {
  DCHECK_LT(u, num_nodes());
  DCHECK_LT(v, num_nodes());
  DCHECK_GT(w, 0.0);
  arcs_.push_back({u, v, w});
}

void GraphBuilder::AddUndirectedEdge(NodeId u, NodeId v, double w) {
  AddDirectedEdge(u, v, w);
  AddDirectedEdge(v, u, w);
}

StatusOr<Graph> GraphBuilder::Build() const {
  const size_t n = num_nodes();
  for (const StagedArc& arc : arcs_) {
    if (arc.source >= n || arc.target >= n) {
      return Status::InvalidArgument("arc endpoint out of range");
    }
    if (!(arc.weight > 0.0)) {
      return Status::InvalidArgument("arc weight must be positive");
    }
  }

  // Sort by (source, target) and merge parallel arcs.
  std::vector<StagedArc> sorted = arcs_;
  std::sort(sorted.begin(), sorted.end(),
            [](const StagedArc& a, const StagedArc& b) {
              if (a.source != b.source) return a.source < b.source;
              return a.target < b.target;
            });
  std::vector<StagedArc> merged;
  merged.reserve(sorted.size());
  for (const StagedArc& arc : sorted) {
    if (!merged.empty() && merged.back().source == arc.source &&
        merged.back().target == arc.target) {
      merged.back().weight += arc.weight;
    } else {
      merged.push_back(arc);
    }
  }

  Graph::Columns c;
  c.node_types = node_types_;

  // Out-CSR columns with transition probabilities.
  c.out_offsets.assign(n + 1, 0);
  for (const StagedArc& arc : merged) c.out_offsets[arc.source + 1]++;
  std::partial_sum(c.out_offsets.begin(), c.out_offsets.end(),
                   c.out_offsets.begin());
  c.out_weights.assign(n, 0.0);
  for (const StagedArc& arc : merged) c.out_weights[arc.source] += arc.weight;

  c.out_targets.resize(merged.size());
  c.out_arc_weights.resize(merged.size());
  c.out_probs.resize(merged.size());
  {
    std::vector<size_t> cursor(c.out_offsets.begin(), c.out_offsets.end() - 1);
    for (const StagedArc& arc : merged) {
      size_t slot = cursor[arc.source]++;
      c.out_targets[slot] = arc.target;
      c.out_arc_weights[slot] = arc.weight;
      c.out_probs[slot] = arc.weight / c.out_weights[arc.source];
    }
  }

  // In-CSR columns mirroring the same probabilities.
  c.in_offsets.assign(n + 1, 0);
  for (const StagedArc& arc : merged) c.in_offsets[arc.target + 1]++;
  std::partial_sum(c.in_offsets.begin(), c.in_offsets.end(),
                   c.in_offsets.begin());
  c.in_sources.resize(merged.size());
  c.in_arc_weights.resize(merged.size());
  c.in_probs.resize(merged.size());
  {
    std::vector<size_t> cursor(c.in_offsets.begin(), c.in_offsets.end() - 1);
    for (const StagedArc& arc : merged) {
      size_t slot = cursor[arc.target]++;
      c.in_sources[slot] = arc.source;
      c.in_arc_weights[slot] = arc.weight;
      c.in_probs[slot] = arc.weight / c.out_weights[arc.source];
    }
  }

  return Graph::Bind(type_names_, std::move(c));
}

}  // namespace rtr
