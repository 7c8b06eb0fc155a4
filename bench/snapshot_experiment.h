#ifndef RTR_BENCH_SNAPSHOT_EXPERIMENT_H_
#define RTR_BENCH_SNAPSHOT_EXPERIMENT_H_

// The growing-graph experiment shared by Fig. 12 (absolute numbers) and
// Fig. 13 (growth rates): five cumulative snapshots per dataset, snapshot i
// served by i+1 graph processors, per-query active-set size and query time
// through the distributed 2SBound.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "dist/distributed_topk.h"
#include "graph/subgraph.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/timer.h"

namespace rtr::bench {

struct SnapshotPoint {
  std::string label;
  int num_gps = 1;
  size_t snapshot_bytes = 0;
  SummaryStats active_set_mb;
  SummaryStats query_ms;
};

inline SnapshotPoint MeasureSnapshot(const Graph& g, const std::string& label,
                                     int num_gps, int num_queries,
                                     uint64_t seed) {
  SnapshotPoint point;
  point.label = label;
  point.num_gps = num_gps;
  point.snapshot_bytes = g.MemoryBytes();

  // Aliasing shared_ptr: the caller's graph outlives this measurement.
  dist::Cluster cluster({std::shared_ptr<const Graph>{}, &g}, num_gps);
  Rng rng(seed);
  std::vector<double> active_mb, query_ms;
  for (int sampled = 0; sampled < num_queries; ++sampled) {
    NodeId q = SampleQueryNode(g, rng);
    CHECK_NE(q, kInvalidNode)
        << "could not sample nodes with outgoing arcs in snapshot " << label;
    core::TopKParams params;
    params.k = 10;
    params.epsilon = 0.01;
    // A fresh arena per query, sized inside DistributedTopK's timed window.
    core::QueryWorkspace workspace;
    dist::DistributedTopKResult result =
        dist::DistributedTopK(cluster, {q}, params, workspace).value();
    active_mb.push_back(static_cast<double>(result.active_set_bytes) / 1e6);
    query_ms.push_back(result.query_millis);
  }
  point.active_set_mb = Summarize(active_mb);
  point.query_ms = Summarize(query_ms);
  return point;
}

inline std::vector<SnapshotPoint> RunBibNetSnapshots(int num_queries) {
  datasets::BibNet bibnet = MakeFullBibNet();
  std::vector<SnapshotPoint> points;
  const int years[] = {1994, 1998, 2002, 2006, 2010};
  for (int i = 0; i < 5; ++i) {
    Subgraph snap = bibnet.Snapshot(years[i]).value();
    points.push_back(MeasureSnapshot(snap.graph, std::to_string(years[i]),
                                     i + 1, num_queries,
                                     1200 + static_cast<uint64_t>(i)));
  }
  return points;
}

inline std::vector<SnapshotPoint> RunQLogSnapshots(int num_queries) {
  datasets::QLog qlog = MakeFullQLog();
  std::vector<SnapshotPoint> points;
  const int days[] = {6, 12, 18, 24, 30};
  const char* labels[] = {"5/6", "5/12", "5/18", "5/24", "5/31"};
  for (int i = 0; i < 5; ++i) {
    Subgraph snap = qlog.Snapshot(days[i]).value();
    points.push_back(MeasureSnapshot(snap.graph, labels[i], i + 1,
                                     num_queries,
                                     1300 + static_cast<uint64_t>(i)));
  }
  return points;
}

}  // namespace rtr::bench

#endif  // RTR_BENCH_SNAPSHOT_EXPERIMENT_H_
