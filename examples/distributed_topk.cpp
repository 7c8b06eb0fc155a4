// Distributed query processing (Sect. V-B): stripe a graph across several
// graph processors, answer top-K RoundTripRank queries through the active
// processor, and inspect the active-set economics that make the
// architecture scale.
//
//   $ ./examples/distributed_topk [num_gps]
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "dist/distributed_topk.h"
#include "util/random.h"

int main(int argc, char** argv) {
  int num_gps = argc > 1 ? std::atoi(argv[1]) : 4;
  if (num_gps < 1) {
    std::fprintf(stderr, "num_gps must be >= 1\n");
    return 1;
  }

  rtr::datasets::BibNetConfig config;
  config.num_papers = 10000;
  config.num_authors = 2500;
  rtr::datasets::BibNet bibnet =
      rtr::datasets::BibNet::Generate(config).value();
  // The cluster and its GPs share this generation (a Graph copy shares the
  // BibNet's storage).
  auto shared = std::make_shared<const rtr::Graph>(bibnet.graph());
  const rtr::Graph& graph = *shared;

  // One in-process GraphProcessor per stripe; the cluster then holds them
  // as its record sources, exactly as it would hold remote ones.
  std::vector<std::unique_ptr<rtr::dist::GraphProcessor>> gps;
  size_t stored_bytes = 0;
  for (int id = 0; id < num_gps; ++id) {
    gps.push_back(
        std::make_unique<rtr::dist::GraphProcessor>(shared, id, num_gps));
    stored_bytes += gps.back()->stored_bytes();
  }
  std::printf("graph: %zu nodes, %zu arcs (%.1f MB) striped over %d GPs\n",
              graph.num_nodes(), graph.num_arcs(), stored_bytes / 1e6,
              num_gps);
  for (const auto& gp : gps) {
    std::printf("  GP %d stores %zu nodes (%.1f MB)\n", gp->id(),
                gp->num_owned_nodes(), gp->stored_bytes() / 1e6);
  }
  rtr::dist::Cluster cluster(shared,
                             {std::make_move_iterator(gps.begin()),
                              std::make_move_iterator(gps.end())});

  rtr::core::TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;
  rtr::Rng rng(99);
  rtr::core::QueryWorkspace workspace;  // per-query scratch, reused
  std::printf("\nrunning 5 queries:\n");
  for (int i = 0; i < 5; ++i) {
    rtr::NodeId query = rtr::bench::SampleQueryNode(graph, rng);
    if (query == rtr::kInvalidNode) {
      std::fprintf(stderr, "could not sample a node with outgoing arcs\n");
      return 1;
    }
    rtr::dist::DistributedTopKResult result =
        rtr::dist::DistributedTopK(cluster, {query}, params, workspace)
            .value();
    std::printf(
        "  query %-7u %.1f ms, active set %zu nodes (%.3f MB = %.2f%% of "
        "the graph), %zu GP requests\n",
        query, result.query_millis, result.active_nodes,
        result.active_set_bytes / 1e6,
        100.0 * result.active_set_bytes / stored_bytes,
        result.requests_sent);
    std::printf("    top-3:");
    for (size_t r = 0; r < 3 && r < result.topk.entries.size(); ++r) {
      const rtr::core::TopKEntry& entry = result.topk.entries[r];
      std::printf(" %u(%s)", entry.node,
                  graph.type_name(graph.node_type(entry.node)).c_str());
    }
    std::printf("\n");
  }
  std::printf("\nThe active set stays a tiny fraction of the graph — the\n"
              "property behind the paper's Figs. 12-13 scalability claim.\n");
  return 0;
}
