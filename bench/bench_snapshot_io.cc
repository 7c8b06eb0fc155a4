// Snapshot I/O benchmark: cold-start cost of text parse + GraphBuilder
// replay vs one bulk binary snapshot read, plus the traversal kernels the
// columnar (SoA) refactor targets (compare against bench_micro's
// BM_FRank/TRankPowerIteration for the end-to-end numbers).
//
// Scale knobs: RTR_SCALE_PAPERS (full BibNet size, default 40000) and
// RTR_SNAPIO_REPS (timing repetitions, default 3). Exits non-zero if a
// snapshot round-trip is not bit-identical to the saved graph.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using rtr::Graph;
using rtr::NodeId;

struct LoadTimes {
  double text_ms = 0.0;
  double snap_ms = 0.0;
  uintmax_t text_bytes = 0;
  uintmax_t snap_bytes = 0;
};

// Best-of-N wall time of `fn` in milliseconds.
template <typename Fn>
double BestMillis(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    rtr::WallTimer timer;
    fn();
    double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

template <typename T>
bool ColumnsEqual(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

// Bit-exact column comparison — the snapshot contract.
bool GraphsIdentical(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    if (a.node_type(v) != b.node_type(v)) return false;
    if (a.out_weight(v) != b.out_weight(v)) return false;
  }
  return a.num_arcs() == b.num_arcs() &&
         a.type_names() == b.type_names() &&
         ColumnsEqual(a.out_offsets(), b.out_offsets()) &&
         ColumnsEqual(a.out_targets(), b.out_targets()) &&
         ColumnsEqual(a.out_arc_weights(), b.out_arc_weights()) &&
         ColumnsEqual(a.out_probs(), b.out_probs()) &&
         ColumnsEqual(a.in_offsets(), b.in_offsets()) &&
         ColumnsEqual(a.in_sources(), b.in_sources()) &&
         ColumnsEqual(a.in_arc_weights(), b.in_arc_weights()) &&
         ColumnsEqual(a.in_probs(), b.in_probs());
}

// One power-iteration-style sweep over the out columns; returns arcs/ms.
// This is the memory-bound kernel the SoA layout optimizes: only the
// (target, prob) columns are streamed.
double SweepArcsPerMs(const Graph& g, int reps) {
  std::vector<double> x(g.num_nodes(), 1.0);
  std::vector<double> y(g.num_nodes(), 0.0);
  double ms = BestMillis(reps, [&] {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      auto targets = g.out_targets(v);
      auto probs = g.out_probs(v);
      double sum = 0.0;
      for (size_t i = 0; i < targets.size(); ++i) {
        sum += probs[i] * x[targets[i]];
      }
      y[v] = sum;
    }
  });
  if (y[0] > 1e300) std::printf("?");  // keep the sweep observable
  return ms <= 0.0 ? 0.0 : static_cast<double>(g.num_arcs()) / ms;
}

// Random-walk sampling throughput (steps/ms) via Graph::SampleOutNeighbor.
double WalkStepsPerMs(const Graph& g, int steps) {
  rtr::Rng rng(99);
  NodeId current = rtr::bench::SampleQueryNode(g, rng);
  if (current == rtr::kInvalidNode) return 0.0;
  rtr::WallTimer timer;
  for (int s = 0; s < steps; ++s) {
    NodeId next = g.SampleOutNeighbor(current, rng.NextDouble());
    current = next == rtr::kInvalidNode
                  ? rtr::bench::SampleQueryNode(g, rng)
                  : next;
  }
  double ms = timer.ElapsedMillis();
  if (current == rtr::kInvalidNode) return 0.0;
  return ms <= 0.0 ? 0.0 : static_cast<double>(steps) / ms;
}

}  // namespace

int main() {
  rtr::bench::PrintBanner(
      "bench_snapshot_io",
      "text-load vs binary-snapshot-load, plus SoA traversal kernels");

  const int reps = rtr::bench::EnvInt("RTR_SNAPIO_REPS", 3);
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "rtr_bench_snapshot_io";
  fs::create_directories(dir);

  struct Case {
    const char* label;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"bibnet-effect", rtr::bench::MakeEffectivenessBibNet().graph()});
  cases.push_back({"bibnet-full", rtr::bench::MakeFullBibNet().graph()});

  std::printf("\n%-14s %10s %10s %9s %9s %12s %12s %8s\n", "graph", "nodes",
              "arcs", "text MB", "snap MB", "text-load ms", "snap-load ms",
              "speedup");
  bool all_identical = true;
  double worst_speedup = 1e300;
  for (const Case& c : cases) {
    const std::string text_path = (dir / (std::string(c.label) + ".txt")).string();
    const std::string snap_path =
        (dir / (std::string(c.label) + ".rtrsnap")).string();
    CHECK(rtr::SaveGraphToFile(c.graph, text_path).ok());
    CHECK(rtr::SaveGraphSnapshotToFile(c.graph, snap_path).ok());

    LoadTimes t;
    t.text_bytes = fs::file_size(text_path);
    t.snap_bytes = fs::file_size(snap_path);
    t.text_ms = BestMillis(
        reps, [&] { CHECK(rtr::LoadGraphFromFile(text_path).ok()); });
    Graph reloaded;
    t.snap_ms = BestMillis(reps, [&] {
      reloaded = rtr::LoadGraphSnapshotFromFile(snap_path).value();
    });
    const bool identical = GraphsIdentical(c.graph, reloaded);
    all_identical = all_identical && identical;
    const double speedup = t.snap_ms > 0.0 ? t.text_ms / t.snap_ms : 0.0;
    worst_speedup = std::min(worst_speedup, speedup);

    std::printf("%-14s %10zu %10zu %9.1f %9.1f %12.1f %12.2f %7.1fx%s\n",
                c.label, c.graph.num_nodes(), c.graph.num_arcs(),
                t.text_bytes / 1e6, t.snap_bytes / 1e6, t.text_ms, t.snap_ms,
                speedup, identical ? "" : "  [COLUMN MISMATCH]");
  }

  // Cold-start table: time from "process has a file path" to "first top-K
  // answer", per loader. The mapped loader defers column I/O to page
  // faults, so its load leg collapses and the first query absorbs the
  // faults it actually touches (the CI bench-smoke artifact).
  {
    const Graph& big = cases.back().graph;
    const std::string text_path =
        (dir / (std::string(cases.back().label) + ".txt")).string();
    const std::string snap_path =
        (dir / (std::string(cases.back().label) + ".rtrsnap")).string();
    rtr::Rng rng(7);
    const NodeId q = rtr::bench::SampleQueryNode(big, rng);
    rtr::core::TopKParams params;
    params.k = 10;

    struct ColdStart {
      const char* label;
      double load_ms = 0.0;
      double first_query_ms = 0.0;
    };
    auto measure = [&](const char* label, auto&& load) {
      ColdStart cs;
      cs.label = label;
      rtr::WallTimer load_timer;
      Graph g = load();
      cs.load_ms = load_timer.ElapsedMillis();
      rtr::WallTimer query_timer;
      {  // The arena is built and freed inside the timed first query.
        rtr::core::QueryWorkspace workspace;
        rtr::core::TopKResult result;
        CHECK(rtr::core::TopKRoundTripRank(g, {q}, params, workspace, &result)
                  .ok());
      }
      cs.first_query_ms = query_timer.ElapsedMillis();
      return cs;
    };
    const ColdStart rows[] = {
        measure("text", [&] { return rtr::LoadGraphFromFile(text_path).value(); }),
        measure("bulk-read",
                [&] { return rtr::LoadGraphSnapshotFromFile(snap_path).value(); }),
        measure("mmap", [&] { return rtr::LoadGraphMapped(snap_path).value(); }),
    };
    std::printf("\ncold start to first top-K answer (%s):\n",
                cases.back().label);
    std::printf("  %-10s %10s %14s %10s\n", "loader", "load ms",
                "first-query ms", "total ms");
    for (const ColdStart& cs : rows) {
      std::printf("  %-10s %10.2f %14.2f %10.2f\n", cs.label, cs.load_ms,
                  cs.first_query_ms, cs.load_ms + cs.first_query_ms);
    }
    const double bulk_total = rows[1].load_ms + rows[1].first_query_ms;
    const double mmap_total = rows[2].load_ms + rows[2].first_query_ms;
    std::printf("  mmap cold-start speedup over bulk-read: %.1fx\n",
                mmap_total > 0.0 ? bulk_total / mmap_total : 0.0);
  }

  std::printf("\ntraversal kernels (columnar layout, largest graph):\n");
  const Graph& big = cases.back().graph;
  const double sweep = SweepArcsPerMs(big, reps);
  std::printf("  out-column sweep:  %.0f arcs/ms (%.2f GB/s over "
              "target+prob columns)\n",
              sweep, sweep * 1e3 * (sizeof(NodeId) + sizeof(double)) / 1e9);
  std::printf("  random-walk steps: %.0f steps/ms\n",
              WalkStepsPerMs(big, 2000000));
  std::printf("\ncompare against bench_micro BM_FRank/TRankPowerIteration "
              "for the end-to-end iteration numbers.\n");

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: snapshot round-trip not bit-identical\n");
    return 1;
  }
  std::printf("snapshot round-trips bit-identical; worst speedup %.1fx\n",
              worst_speedup);
  return 0;
}
