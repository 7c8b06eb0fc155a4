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

  // Sort by (source, target) and merge parallel arcs straight into the
  // out-rows. The sort is stable, so an arc's copies are summed in staging
  // order (the order ApplyDelta accumulates repeated inserts in).
  std::vector<StagedArc> sorted = arcs_;
  std::stable_sort(sorted.begin(), sorted.end(),
            [](const StagedArc& a, const StagedArc& b) {
              if (a.source != b.source) return a.source < b.source;
              return a.target < b.target;
            });
  std::vector<size_t> out_offsets(n + 1, 0);
  std::vector<NodeId> out_targets;
  std::vector<double> out_arc_weights;
  out_targets.reserve(sorted.size());
  out_arc_weights.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const StagedArc& arc = sorted[i];
    if (i > 0 && sorted[i - 1].source == arc.source &&
        sorted[i - 1].target == arc.target) {
      out_arc_weights.back() += arc.weight;
    } else {
      out_offsets[arc.source + 1]++;
      out_targets.push_back(arc.target);
      out_arc_weights.push_back(arc.weight);
    }
  }
  std::partial_sum(out_offsets.begin(), out_offsets.end(),
                   out_offsets.begin());
  return Freeze(type_names_, node_types_, std::move(out_offsets),
                std::move(out_targets), std::move(out_arc_weights));
}

Graph GraphBuilder::Freeze(std::vector<std::string> type_names,
                           std::vector<NodeTypeId> node_types,
                           std::vector<size_t> out_offsets,
                           std::vector<NodeId> out_targets,
                           std::vector<double> out_arc_weights) {
  const size_t n = node_types.size();
  const size_t num_arcs = out_targets.size();
  DCHECK_EQ(out_offsets.size(), n + 1);
  DCHECK_EQ(out_offsets[n], num_arcs);
  DCHECK_EQ(out_arc_weights.size(), num_arcs);

  Graph::Columns c;
  c.node_types = std::move(node_types);
  c.out_offsets = std::move(out_offsets);
  c.out_targets = std::move(out_targets);
  c.out_arc_weights = std::move(out_arc_weights);

  // Out-side: weight totals in target order, then w / total per arc. Count
  // in-degrees on the way.
  c.out_weights.resize(n);
  c.out_probs.resize(num_arcs);
  c.in_offsets.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    const size_t begin = c.out_offsets[v];
    const size_t end = c.out_offsets[v + 1];
    double total = 0.0;
    for (size_t i = begin; i < end; ++i) {
      DCHECK_LT(c.out_targets[i], n);
      DCHECK(i == begin || c.out_targets[i - 1] < c.out_targets[i])
          << "out-row " << v << " not strictly increasing";
      DCHECK_GT(c.out_arc_weights[i], 0.0);
      total += c.out_arc_weights[i];
      c.in_offsets[c.out_targets[i] + 1]++;
    }
    c.out_weights[v] = total;
    for (size_t i = begin; i < end; ++i) {
      c.out_probs[i] = c.out_arc_weights[i] / total;
    }
  }
  std::partial_sum(c.in_offsets.begin(), c.in_offsets.end(),
                   c.in_offsets.begin());

  // In-side: one counting pass over the out-rows in source order, so each
  // in-row's sources come out ascending and mirror the out-side values.
  c.in_sources.resize(num_arcs);
  c.in_arc_weights.resize(num_arcs);
  c.in_probs.resize(num_arcs);
  std::vector<size_t> cursor(c.in_offsets.begin(), c.in_offsets.end() - 1);
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = c.out_offsets[v]; i < c.out_offsets[v + 1]; ++i) {
      const size_t slot = cursor[c.out_targets[i]]++;
      c.in_sources[slot] = static_cast<NodeId>(v);
      c.in_arc_weights[slot] = c.out_arc_weights[i];
      c.in_probs[slot] = c.out_probs[i];
    }
  }

  return Graph::Bind(std::move(type_names), std::move(c));
}

}  // namespace rtr
