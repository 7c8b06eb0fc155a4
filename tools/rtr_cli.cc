// rtr — command-line interface to the RoundTripRank library.
//
//   rtr generate    --dataset bibnet|qlog [--seed N] [--out graph.txt]
//   rtr convert     <in> <out>
//   rtr info        <graph-or-delta-file>        (also: --graph graph.txt)
//   rtr diff        <base> <next> <out.rtrdelta>
//   rtr apply-delta <base> <delta> [<delta> ...] <out.rtrsnap>
//   rtr rank        --graph graph.txt --query 1,2,3 [--measure rtr|rtr+|f|t]
//                   [--beta 0.5] [--k 10] [--type venue]
//   rtr topk        --graph graph.txt --query 5 [--k 10] [--eps 0.01]
//                   [--scheme 2sbound|gupta|sarkar|g+s|naive]
//   rtr serve       [--graph graph.txt] [--mmap]
//                   [--delta d1.rtrdelta,d2.rtrdelta]
//                   [--queries 200] [--qps 200] [--workers 4] [--queue 256]
//                   [--cache 1] [--cache-capacity 1024]
//                   [--backend local|dist] [--gps 4] [--k 10] [--eps 0.01]
//                   [--slo-ms 50] [--repeat 0.5] [--seed 7]
//                   [--metrics-out metrics.txt] [--metrics-interval-ms 1000]
//                   [--trace N] [--tracing 0|1]
//                   [--scheduler] [--deadline-ms D] [--eps-band MAX]
//                   [--replay stream.rtrq]
//   rtr gp-serve    --graph g.rtrsnap --shard k/N [--port 0] [--mmap]
//
// A subcommand refuses any flag outside its list above, and any value that
// does not parse in full (a number, a --query id list, a 0/1 switch), with
// exit code 2.
//
// Every --graph flag accepts either the text format of graph/io.h or the
// binary snapshot format of graph/snapshot.h, auto-detected by magic;
// `convert` translates between the two (a text input becomes a snapshot and
// vice versa). A snapshot is bulk-read unless the caller passes --mmap:
// `serve --mmap` and `gp-serve --mmap` map it zero-copy instead
// (MapMode::kPrefer, with a logged bulk-read fallback) and refuse a text
// graph, which is never mapped; no environment variable picks the loader.
// `generate` emits the synthetic datasets used by the benchmark suite.
// `info` on a binary snapshot or delta file prints the header (format
// version, generation, counts, checksum) without loading the payload.
// `diff` computes the delta between two append-only graph versions;
// `apply-delta` replays delta files onto a base through a graph::GraphStore
// and writes the resulting generation as a v2 snapshot.
// `serve` replays a synthetic QLog query stream (or random queries on a
// loaded graph) at a target QPS through the concurrent serve::QueryService
// and reports throughput, tail latency, and cache behavior; with --delta, a
// writer thread applies the listed delta files mid-replay, exercising the
// live generation-swap path while queries are in flight.
//
// Scheduling (DESIGN.md §11): `serve --scheduler` turns on cost-model
// admission — shortest-predicted-job-first (each worker wakeup serves one
// request) and a deadline test (--deadline-ms gives every request a
// completion budget; 0 = none). A request predicted to miss its deadline
// runs at --eps-band instead if that is predicted to meet it, and is shed
// otherwise; --eps-band widens only such requests, never one without a
// deadline. `--replay file` replaces the synthetic stream with
// a recorded one: one record per line, `node [deadline_ms]`, `#` comments
// and blank lines skipped. The deadline column is optional per record —
// old node-only logs parse unchanged (records without it fall back to
// --deadline-ms).
//
// Observability (DESIGN.md §9): `serve` ends by printing the process-wide
// metrics registry in the Prometheus-style text exposition — the SAME
// rendered string is appended to --metrics-out, so the human summary and
// the machine dump agree field-for-field. --metrics-interval-ms appends
// periodic dumps during the replay (each prefixed with `# dump N`, counters
// monotone across dumps). --trace N enables per-query phase tracing and
// prints the N slowest queries' trace JSON; --tracing 1 enables tracing
// without the dump. LOG verbosity follows the RTR_LOG_LEVEL env var
// (info|warn|error|off; default warn).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/round_trip_rank.h"
#include "core/twosbound.h"
#include "datasets/bibnet.h"
#include "datasets/qlog.h"
#include "dist/distributed_topk.h"
#include "eval/experiment.h"
#include "graph/delta.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "graph/store.h"
#include "net/gp_server.h"
#include "net/remote_gp.h"
#include "obs/metrics.h"
#include "ranking/combinators.h"
#include "ranking/pagerank.h"
#include "serve/query_service.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using rtr::Graph;
using rtr::NodeId;

// Strict --flag value parser; flags may appear in any order. Each
// subcommand names the flags it reads: any other flag, or a value its
// getter cannot parse in full, is a usage error (exit 2).
class Flags {
 public:
  Flags(int argc, char** argv, const char* command,
        std::initializer_list<std::string_view> accepted) {
    for (int i = 2; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const char* name = argv[i] + 2;
      if (std::find(accepted.begin(), accepted.end(), name) ==
          accepted.end()) {
        std::fprintf(stderr, "unknown flag '%s' for %s\n", argv[i], command);
        std::exit(2);
      }
      // Known boolean flags may stand alone (`serve --mmap`); an explicit
      // value (`--mmap 0`) still works.
      const bool standalone =
          IsBooleanFlag(name) &&
          (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0);
      if (!standalone && i + 1 >= argc) {
        std::fprintf(stderr, "flag '%s' is missing a value\n", argv[i]);
        std::exit(2);
      }
      values_[name] = standalone ? "1" : argv[i + 1];
      i += standalone ? 1 : 2;
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    return GetNumber(key, fallback, "a number");
  }
  int GetInt(const std::string& key, int fallback) const {
    return GetNumber(key, fallback, "an integer");
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return false;
    const std::string& text = it->second;
    if (text == "1" || text == "on" || text == "true") return true;
    if (text == "0" || text == "off" || text == "false") return false;
    std::fprintf(stderr,
                 "flag '--%s' expects 1|0|on|off|true|false, got '%s'\n",
                 key.c_str(), text.c_str());
    std::exit(2);
  }

 private:
  // The value of `key` parsed in full as a T (exit 2 if it is not one), or
  // `fallback` when the flag is absent.
  template <typename T>
  T GetNumber(const std::string& key, T fallback, const char* what) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (error != std::errc() || end != text.data() + text.size()) {
      std::fprintf(stderr, "flag '--%s' expects %s, got '%s'\n", key.c_str(),
                   what, text.c_str());
      std::exit(2);
    }
    return value;
  }

  static bool IsBooleanFlag(const char* name) {
    return std::strcmp(name, "mmap") == 0 ||
           std::strcmp(name, "scheduler") == 0;
  }

  std::map<std::string, std::string> values_;
};

// The comma-separated node ids of --query; anything else exits 2.
std::vector<NodeId> ParseQuery(const std::string& text) {
  std::vector<NodeId> nodes;
  size_t start = 0;
  while (start < text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    NodeId node = 0;
    const char* last = text.data() + comma;
    const auto [end, error] = std::from_chars(text.data() + start, last, node);
    if (error != std::errc() || end != last) {
      std::fprintf(stderr, "flag '--query' expects node ids, got '%s'\n",
                   text.c_str());
      std::exit(2);
    }
    nodes.push_back(node);
    start = comma + 1;
  }
  return nodes;
}

Graph LoadGraphOrDie(const Flags& flags) {
  std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    std::fprintf(stderr, "missing --graph\n");
    std::exit(2);
  }
  rtr::StatusOr<Graph> graph = rtr::LoadGraphAuto(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(graph).value();
}

// The --graph of `serve` and `gp-serve`. --mmap maps a snapshot zero-copy
// (MapMode::kPrefer; a failed mapping falls back to a bulk read with a
// logged warning). A text graph is never mapped, so --mmap on one is a
// usage error instead of a silent bulk read. Returns 0, or the exit code
// after printing why the graph did not load.
int LoadServedGraph(const Flags& flags, std::shared_ptr<const Graph>* graph,
                    uint64_t* generation) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) {
    std::fprintf(stderr, "missing --graph\n");
    return 2;
  }
  const bool mmap = flags.GetBool("mmap");
  if (mmap) {
    rtr::StatusOr<bool> is_snapshot = rtr::IsSnapshotFile(path);
    if (is_snapshot.ok() && !*is_snapshot) {
      std::fprintf(stderr, "--mmap needs a snapshot file\n");
      return 2;
    }
  }
  rtr::StatusOr<Graph> loaded = rtr::LoadGraphAuto(
      path, generation, mmap ? rtr::MapMode::kPrefer : rtr::MapMode::kNever);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  if (mmap && !loaded->is_mapped()) {
    std::fprintf(stderr,
                 "note: --mmap fell back to a bulk read (see warning "
                 "above)\n");
  }
  *graph = std::make_shared<const Graph>(std::move(loaded).value());
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  const Flags flags(argc, argv, "generate", {"dataset", "out", "seed"});
  std::string dataset = flags.GetString("dataset", "bibnet");
  std::string out = flags.GetString("out", dataset + ".graph.txt");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  Graph graph;
  if (dataset == "bibnet") {
    rtr::datasets::BibNetConfig config;
    if (seed != 0) config.seed = seed;
    auto net = rtr::datasets::BibNet::Generate(config);
    if (!net.ok()) {
      std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
      return 1;
    }
    graph = net->graph();
  } else if (dataset == "qlog") {
    rtr::datasets::QLogConfig config;
    if (seed != 0) config.seed = seed;
    auto log = rtr::datasets::QLog::Generate(config);
    if (!log.ok()) {
      std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
      return 1;
    }
    graph = log->graph();
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (bibnet|qlog)\n",
                 dataset.c_str());
    return 2;
  }
  rtr::Status status = rtr::SaveGraphToFile(graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu arcs\n", out.c_str(),
              graph.num_nodes(), graph.num_arcs());
  return 0;
}

// `rtr convert <in> <out>`: translates between the text and binary snapshot
// graph formats. The input format is auto-detected by magic; the output is
// written in the other format.
int CmdConvert(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: rtr convert <in> <out>\n");
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  rtr::StatusOr<bool> is_snapshot = rtr::IsSnapshotFile(in_path);
  if (!is_snapshot.ok()) {
    std::fprintf(stderr, "cannot read input: %s\n",
                 is_snapshot.status().ToString().c_str());
    return 1;
  }
  rtr::StatusOr<Graph> graph = *is_snapshot
                                   ? rtr::LoadGraphSnapshotFromFile(in_path)
                                   : rtr::LoadGraphFromFile(in_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  rtr::Status status = *is_snapshot
                           ? rtr::SaveGraphToFile(*graph, out_path)
                           : rtr::SaveGraphSnapshotToFile(*graph, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write graph: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s -> %s: %zu nodes, %zu arcs (%s -> %s)\n", in_path.c_str(),
              out_path.c_str(), graph->num_nodes(), graph->num_arcs(),
              *is_snapshot ? "snapshot" : "text",
              *is_snapshot ? "text" : "snapshot");
  return 0;
}

// Full in-memory summary of a loaded graph (the historical `info` output).
void PrintGraphSummary(const Graph& graph) {
  std::printf("nodes: %zu\narcs: %zu\naverage degree: %.2f\nmemory: %.1f MB\n",
              graph.num_nodes(), graph.num_arcs(), graph.AverageDegree(),
              graph.MemoryBytes() / 1e6);
  std::printf("node types:\n");
  for (size_t t = 0; t < graph.type_names().size(); ++t) {
    size_t count = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (graph.node_type(v) == t) ++count;
    }
    if (count > 0) {
      std::printf("  %-12s %zu\n", graph.type_names()[t].c_str(), count);
    }
  }
}

// `rtr info <path>`: header-only inspection of binary snapshot and delta
// files (no payload load), full summary for text graphs.
int CmdInfoPath(const std::string& path) {
  rtr::StatusOr<bool> is_delta = rtr::IsDeltaFile(path);
  if (!is_delta.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 is_delta.status().ToString().c_str());
    return 1;
  }
  if (*is_delta) {
    rtr::StatusOr<rtr::DeltaFileInfo> info = rtr::ReadDeltaFileInfo(path);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("format: delta (rtr-delt v%u)\n", info->version);
    std::printf("base generation: %llu\n",
                static_cast<unsigned long long>(info->base_generation));
    std::printf("added types: %llu\nadded nodes: %llu\n",
                static_cast<unsigned long long>(info->num_added_types),
                static_cast<unsigned long long>(info->num_added_nodes));
    std::printf("removed arcs: %llu\nadded arcs: %llu\n",
                static_cast<unsigned long long>(info->num_removed_arcs),
                static_cast<unsigned long long>(info->num_added_arcs));
    std::printf("payload checksum: %016llx\n",
                static_cast<unsigned long long>(info->payload_checksum));
    return 0;
  }
  rtr::StatusOr<bool> is_snapshot = rtr::IsSnapshotFile(path);
  if (!is_snapshot.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 is_snapshot.status().ToString().c_str());
    return 1;
  }
  if (*is_snapshot) {
    rtr::StatusOr<rtr::SnapshotFileInfo> info =
        rtr::ReadSnapshotFileInfo(path);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("format: snapshot (rtr-snap v%u)\n", info->version);
    std::printf("generation: %llu\n",
                static_cast<unsigned long long>(info->generation));
    std::printf("node types: %llu\nnodes: %llu\narcs: %llu\n",
                static_cast<unsigned long long>(info->num_types),
                static_cast<unsigned long long>(info->num_nodes),
                static_cast<unsigned long long>(info->num_arcs));
    std::printf("payload checksum: %016llx\n",
                static_cast<unsigned long long>(info->payload_checksum));
    return 0;
  }
  rtr::StatusOr<Graph> graph = rtr::LoadGraphFromFile(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("format: text\n");
  PrintGraphSummary(*graph);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  const Flags flags(argc, argv, "info", {"graph"});
  Graph graph = LoadGraphOrDie(flags);
  PrintGraphSummary(graph);
  return 0;
}

// `rtr diff <base> <next> <out.rtrdelta>`: structural diff between two
// append-only graph versions, written as a checksummed delta file whose
// base_generation comes from the base snapshot's header (0 for text).
int CmdDiff(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: rtr diff <base> <next> <out.rtrdelta>\n");
    return 2;
  }
  uint64_t base_generation = 0;
  rtr::StatusOr<Graph> base = rtr::LoadGraphAuto(argv[2], &base_generation);
  if (!base.ok()) {
    std::fprintf(stderr, "cannot load base: %s\n",
                 base.status().ToString().c_str());
    return 1;
  }
  rtr::StatusOr<Graph> next = rtr::LoadGraphAuto(argv[3]);
  if (!next.ok()) {
    std::fprintf(stderr, "cannot load next: %s\n",
                 next.status().ToString().c_str());
    return 1;
  }
  rtr::StatusOr<rtr::GraphDelta> delta = rtr::DiffGraphs(*base, *next);
  if (!delta.ok()) {
    std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
    return 1;
  }
  delta->base_generation = base_generation;
  rtr::Status saved = rtr::SaveGraphDeltaToFile(*delta, argv[4]);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: base generation %llu, +%zu nodes, -%zu/+%zu arcs\n",
              argv[4], static_cast<unsigned long long>(base_generation),
              delta->added_node_types.size(), delta->removed_arcs.size(),
              delta->added_arcs.size());
  return 0;
}

// `rtr apply-delta <base> <delta> [<delta> ...] <out.rtrsnap>`: replays
// delta files in order onto the base through a GraphStore (so the
// generation handshake is enforced) and writes the final generation as a
// v2 binary snapshot.
int CmdApplyDelta(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: rtr apply-delta <base> <delta> [<delta> ...] "
                 "<out.rtrsnap>\n");
    return 2;
  }
  rtr::StatusOr<std::unique_ptr<rtr::GraphStore>> store =
      rtr::GraphStore::Open(argv[2]);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open base: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  for (int i = 3; i < argc - 1; ++i) {
    rtr::StatusOr<uint64_t> generation = (*store)->CatchUp(argv[i]);
    if (!generation.ok()) {
      std::fprintf(stderr, "applying %s: %s\n", argv[i],
                   generation.status().ToString().c_str());
      return 1;
    }
    std::printf("applied %s -> generation %llu\n", argv[i],
                static_cast<unsigned long long>(*generation));
  }
  rtr::PinnedGraph current = (*store)->Pin();
  rtr::Status saved = rtr::SaveGraphSnapshotToFile(
      *current.graph, argv[argc - 1], current.generation);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: generation %llu, %zu nodes, %zu arcs\n",
              argv[argc - 1],
              static_cast<unsigned long long>(current.generation),
              current.graph->num_nodes(), current.graph->num_arcs());
  return 0;
}

int CmdRank(int argc, char** argv) {
  const Flags flags(argc, argv, "rank",
                    {"graph", "query", "measure", "beta", "k", "type"});
  std::vector<NodeId> query = ParseQuery(flags.GetString("query", ""));
  if (query.empty()) {
    std::fprintf(stderr, "missing --query\n");
    return 2;
  }
  Graph graph = LoadGraphOrDie(flags);
  for (NodeId q : query) {
    if (q >= graph.num_nodes()) {
      std::fprintf(stderr, "query node %u out of range\n", q);
      return 2;
    }
  }
  std::string measure_name = flags.GetString("measure", "rtr");
  double beta = flags.GetDouble("beta", 0.5);
  int k = flags.GetInt("k", 10);

  auto scorer = std::make_shared<rtr::ranking::FTScorer>(graph);
  std::unique_ptr<rtr::ranking::ProximityMeasure> measure;
  if (measure_name == "rtr") {
    measure = rtr::core::MakeRoundTripRankMeasure(scorer);
  } else if (measure_name == "rtr+") {
    measure = rtr::core::MakeRoundTripRankPlusMeasure(scorer, beta);
  } else if (measure_name == "f") {
    measure = rtr::ranking::MakeFRankMeasure(scorer);
  } else if (measure_name == "t") {
    measure = rtr::ranking::MakeTRankMeasure(scorer);
  } else {
    std::fprintf(stderr, "unknown measure '%s' (rtr|rtr+|f|t)\n",
                 measure_name.c_str());
    return 2;
  }

  rtr::WallTimer timer;
  std::vector<double> scores = measure->Score(query);
  std::vector<NodeId> ranked;
  if (flags.Has("type")) {
    std::string type_name = flags.GetString("type", "");
    rtr::NodeTypeId type = 0;
    bool found = false;
    for (size_t t = 0; t < graph.type_names().size(); ++t) {
      if (graph.type_names()[t] == type_name) {
        type = static_cast<rtr::NodeTypeId>(t);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown node type '%s'\n", type_name.c_str());
      return 2;
    }
    ranked = rtr::eval::FilteredRanking(graph, scores, query, type,
                                        static_cast<size_t>(k));
  } else {
    ranked = rtr::ranking::TopKNodes(scores, static_cast<size_t>(k), query);
  }
  std::printf("%s results in %.1f ms:\n", measure->name().c_str(),
              timer.ElapsedMillis());
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("%3zu. node %-9u (%s)  score %.6g\n", i + 1, ranked[i],
                graph.type_name(graph.node_type(ranked[i])).c_str(),
                scores[ranked[i]]);
  }
  return 0;
}

int CmdTopK(int argc, char** argv) {
  const Flags flags(argc, argv, "topk",
                    {"graph", "query", "k", "eps", "scheme"});
  std::vector<NodeId> query = ParseQuery(flags.GetString("query", ""));
  if (query.empty()) {
    std::fprintf(stderr, "missing --query\n");
    return 2;
  }
  Graph graph = LoadGraphOrDie(flags);
  rtr::core::TopKParams params;
  params.k = flags.GetInt("k", 10);
  params.epsilon = flags.GetDouble("eps", 0.01);
  std::string scheme = flags.GetString("scheme", "2sbound");
  if (scheme == "2sbound") {
    params.scheme = rtr::core::TopKScheme::k2SBound;
  } else if (scheme == "gupta") {
    params.scheme = rtr::core::TopKScheme::kGupta;
  } else if (scheme == "sarkar") {
    params.scheme = rtr::core::TopKScheme::kSarkar;
  } else if (scheme == "g+s") {
    params.scheme = rtr::core::TopKScheme::kGPlusS;
  } else if (scheme == "naive") {
    params.scheme = rtr::core::TopKScheme::kNaive;
  } else {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
    return 2;
  }
  rtr::WallTimer timer;
  rtr::core::QueryWorkspace workspace;
  rtr::core::TopKResult result;
  rtr::Status status =
      rtr::core::TopKRoundTripRank(graph, query, params, workspace, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s top-%d in %.1f ms (%d rounds, active set %zu nodes, "
              "%.3f MB)%s:\n",
              rtr::core::TopKSchemeName(params.scheme), params.k,
              timer.ElapsedMillis(), result.rounds, result.active_nodes,
              result.active_set_bytes / 1e6,
              result.converged ? "" : " [NOT CONVERGED]");
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const rtr::core::TopKEntry& entry = result.entries[i];
    std::printf("%3zu. node %-9u (%s)  r in [%.6g, %.6g]\n", i + 1,
                entry.node,
                graph.type_name(graph.node_type(entry.node)).c_str(),
                entry.lower, entry.upper);
  }
  return 0;
}

// Replays a synthetic query stream at a target QPS through the concurrent
// serve::QueryService and prints throughput / tail-latency / cache figures.
int CmdServe(int argc, char** argv) {
  const Flags flags(
      argc, argv, "serve",
      {"graph", "mmap", "delta", "queries", "qps", "workers", "queue",
       "cache", "cache-capacity", "backend", "gps", "k", "eps", "slo-ms",
       "repeat", "seed", "metrics-out", "metrics-interval-ms", "trace",
       "tracing", "scheduler", "deadline-ms", "eps-band", "replay"});
  // The served graph: an explicit --graph file, or the synthetic QLog
  // (whose phrase nodes make a natural query stream). The QLog stays alive
  // so its graph is referenced, not copied.
  std::shared_ptr<const Graph> graph_sp;
  uint64_t generation = 0;
  std::unique_ptr<rtr::datasets::QLog> qlog;
  std::vector<NodeId> query_pool_source;  // candidate query nodes
  // --mmap needs a file to map, so it makes --graph required.
  if (flags.Has("graph") || flags.GetBool("mmap")) {
    const int rc = LoadServedGraph(flags, &graph_sp, &generation);
    if (rc != 0) return rc;
  } else {
    rtr::datasets::QLogConfig config;
    uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
    if (seed != 0) config.seed = seed;
    auto generated = rtr::datasets::QLog::Generate(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    qlog = std::make_unique<rtr::datasets::QLog>(
        std::move(generated).value());
    // Aliasing shared_ptr: the QLog owns its graph for the whole run.
    graph_sp = {std::shared_ptr<const Graph>{}, &qlog->graph()};
    query_pool_source = graph_sp->NodesOfType(qlog->phrase_type());
  }
  const Graph* graph = graph_sp.get();

  int num_queries = flags.GetInt("queries", 200);
  double target_qps = flags.GetDouble("qps", 200.0);
  if (num_queries <= 0 || target_qps <= 0.0) {
    std::fprintf(stderr, "--queries and --qps must be positive\n");
    return 2;
  }
  double repeat = flags.GetDouble("repeat", 0.5);
  if (!(repeat >= 0.0 && repeat <= 1.0)) {
    std::fprintf(stderr, "--repeat must be a fraction in [0, 1]\n");
    return 2;
  }

  rtr::serve::ServiceOptions options;
  options.num_workers = flags.GetInt("workers", 4);
  int queue_capacity = flags.GetInt("queue", 256);
  // --gps is dual-purpose: an integer stripes the graph across in-process
  // GPs (backend dist); a host:port,... list fronts remote gp-serve shards
  // (backend remote, the only backend that accepts one).
  std::vector<std::string> gp_endpoints;
  const std::string gps_flag = flags.GetString("gps", "");
  if (gps_flag.find(':') != std::string::npos) {
    size_t begin = 0;
    while (begin < gps_flag.size()) {
      size_t comma = gps_flag.find(',', begin);
      if (comma == std::string::npos) comma = gps_flag.size();
      if (comma > begin) {
        gp_endpoints.push_back(gps_flag.substr(begin, comma - begin));
      }
      begin = comma + 1;
    }
  }
  int num_gps = gp_endpoints.empty()
                    ? flags.GetInt("gps", 4)
                    : static_cast<int>(gp_endpoints.size());
  int cache_capacity = flags.GetInt("cache-capacity", 1024);
  if (options.num_workers < 1 || queue_capacity < 1 || num_gps < 1 ||
      cache_capacity < 1) {
    std::fprintf(stderr,
                 "--workers, --queue, --gps and --cache-capacity must be "
                 ">= 1\n");
    return 2;
  }
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  options.enable_cache = flags.GetInt("cache", 1) != 0;
  options.cache_capacity = static_cast<size_t>(cache_capacity);
  options.slo_millis = flags.GetDouble("slo-ms", 50.0);

  // Cost-model admission scheduling (serve/scheduler.h).
  options.scheduler.enabled = flags.GetBool("scheduler");
  options.scheduler.eps_max = flags.GetDouble("eps-band", 0.0);
  // Per-request completion budget; replay records may override it.
  double default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  if (default_deadline_ms < 0.0) {
    std::fprintf(stderr, "--deadline-ms must be >= 0\n");
    return 2;
  }

  // Tracing: --trace N prints the N slowest queries' phase traces (and
  // implies tracing on); --tracing 1 turns tracing on without the dump.
  int trace_n = flags.GetInt("trace", 0);
  if (trace_n < 0) {
    std::fprintf(stderr, "--trace must be >= 0\n");
    return 2;
  }
  options.enable_tracing = trace_n > 0 || flags.GetInt("tracing", 0) != 0;
  if (trace_n > 0) options.trace_keep = static_cast<size_t>(trace_n);

  // Metrics exposition dump: appended to --metrics-out periodically during
  // the replay and once at the end.
  std::string metrics_out = flags.GetString("metrics-out", "");
  int metrics_interval_ms = flags.GetInt("metrics-interval-ms", 1000);
  if (metrics_interval_ms < 1) {
    std::fprintf(stderr, "--metrics-interval-ms must be >= 1\n");
    return 2;
  }

  rtr::core::TopKParams params;
  params.k = flags.GetInt("k", 10);
  params.epsilon = flags.GetDouble("eps", 0.01);

  // Recorded query stream: one record per line, `node [deadline_ms]`.
  // The deadline column is optional per record (old node-only logs parse
  // unchanged); records without it use --deadline-ms. A replay file
  // defines the stream, so it overrides --queries.
  struct ReplayRecord {
    NodeId node;
    double deadline_millis;
  };
  std::vector<ReplayRecord> replay;
  if (flags.Has("replay")) {
    const std::string replay_path = flags.GetString("replay", "");
    std::FILE* f = std::fopen(replay_path.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot read --replay %s\n", replay_path.c_str());
      return 2;
    }
    char line[256];
    int lineno = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      ++lineno;
      char* s = line;
      while (*s == ' ' || *s == '\t') ++s;
      if (*s == '\0' || *s == '\n' || *s == '\r' || *s == '#') continue;
      char* end = nullptr;
      unsigned long long node = std::strtoull(s, &end, 10);
      if (end == s) {
        std::fprintf(stderr, "%s:%d: expected a node id\n",
                     replay_path.c_str(), lineno);
        std::fclose(f);
        return 2;
      }
      double deadline = default_deadline_ms;
      char* rest = end;
      while (*rest == ' ' || *rest == '\t') ++rest;
      if (*rest != '\0' && *rest != '\n' && *rest != '\r' && *rest != '#') {
        char* dead_end = nullptr;
        deadline = std::strtod(rest, &dead_end);
        if (dead_end == rest || deadline < 0.0) {
          std::fprintf(stderr, "%s:%d: bad deadline column\n",
                       replay_path.c_str(), lineno);
          std::fclose(f);
          return 2;
        }
      }
      replay.push_back({static_cast<NodeId>(node), deadline});
    }
    std::fclose(f);
    if (replay.empty()) {
      std::fprintf(stderr, "--replay %s holds no records\n",
                   replay_path.c_str());
      return 2;
    }
    num_queries = static_cast<int>(replay.size());
  }

  // Unique query pool: ~ (1 - repeat) of the stream; uniform draws from the
  // pool then yield roughly the requested repeat fraction. A replay file
  // supplies its own nodes instead.
  rtr::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 7)));
  std::vector<NodeId> pool;
  if (replay.empty()) {
    int pool_size = std::max(1, static_cast<int>(num_queries *
                                                 (1.0 - repeat)));
    for (int i = 0; i < pool_size; ++i) {
      NodeId q = query_pool_source.empty()
                     ? rtr::bench::SampleQueryNode(*graph, rng)
                     : rtr::bench::SampleQueryNode(*graph, query_pool_source,
                                                   rng);
      if (q == rtr::kInvalidNode) {
        std::fprintf(stderr, "could not sample query nodes with out-arcs\n");
        return 1;
      }
      pool.push_back(q);
    }
  }

  // Delta files a writer thread applies mid-replay (comma-separated, in
  // generation order). Every backend serves through a GraphStore, so the
  // swap path is identical with and without deltas.
  std::vector<std::string> delta_paths;
  if (flags.Has("delta")) {
    std::string list = flags.GetString("delta", "");
    size_t begin = 0;
    while (begin < list.size()) {
      size_t comma = list.find(',', begin);
      if (comma == std::string::npos) comma = list.size();
      if (comma > begin) delta_paths.push_back(list.substr(begin, comma - begin));
      begin = comma + 1;
    }
  }

  std::string backend = flags.GetString(
      "backend", gp_endpoints.empty() ? "local" : "remote");
  if (!gp_endpoints.empty() && backend != "remote") {
    std::fprintf(stderr,
                 "--gps host:port[,host:port...] needs backend remote, not "
                 "'%s'\n",
                 backend.c_str());
    return 2;
  }
  // The in-process backends serve (and --delta advances) this store. A
  // remote cluster is served from the service's own single-generation
  // store, so a second one here would duplicate the rtr_store_* series.
  std::shared_ptr<rtr::GraphStore> store;
  if (backend != "remote") {
    store = std::make_shared<rtr::GraphStore>(graph_sp, generation);
  }
  std::unique_ptr<rtr::serve::QueryService> service;
  // Kept past service construction so the end-of-run wire summary can read
  // the remote sources' traffic.
  std::shared_ptr<const rtr::dist::Cluster> remote_cluster;
  if (backend == "local") {
    service = std::make_unique<rtr::serve::QueryService>(store, options);
  } else if (backend == "dist") {
    service =
        std::make_unique<rtr::serve::QueryService>(store, num_gps, options);
  } else if (backend == "remote") {
    if (gp_endpoints.empty()) {
      std::fprintf(stderr,
                   "backend remote needs --gps host:port[,host:port...]\n");
      return 2;
    }
    if (!delta_paths.empty()) {
      std::fprintf(stderr,
                   "--delta needs an in-process backend; remote gp-serve "
                   "shards are pinned to one generation\n");
      return 2;
    }
    rtr::StatusOr<std::unique_ptr<rtr::dist::Cluster>> connected =
        rtr::net::ConnectRemoteCluster(graph_sp, generation, gp_endpoints);
    if (!connected.ok()) {
      std::fprintf(stderr, "cannot front remote cluster: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    remote_cluster = std::move(*connected);
    for (const std::string& endpoint : gp_endpoints) {
      std::printf("  [gp] connected to %s\n", endpoint.c_str());
    }
    service = std::make_unique<rtr::serve::QueryService>(remote_cluster,
                                                         options);
  } else {
    std::fprintf(stderr, "unknown backend '%s' (local|dist|remote)\n",
                 backend.c_str());
    return 2;
  }

  std::printf("serving %zu-node graph (generation %llu): %d queries at "
              "%.0f QPS, %d workers, queue %zu, cache %s, backend %s, "
              "%zu pending deltas\n",
              graph->num_nodes(),
              static_cast<unsigned long long>(generation), num_queries,
              target_qps, options.num_workers, options.queue_capacity,
              options.enable_cache ? "on" : "off", backend.c_str(),
              delta_paths.size());
  if (options.scheduler.enabled) {
    std::printf("scheduler on: deadline %.1fms, eps band [%.4f, %.4f] "
                "(widens only requests that would miss their deadline)%s\n",
                default_deadline_ms, params.epsilon,
                std::max(options.scheduler.eps_max, params.epsilon),
                replay.empty() ? "" : ", replayed stream");
  }

  rtr::Status status = service->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::atomic<int> done_count{0};
  auto interval = std::chrono::duration<double>(1.0 / target_qps);
  auto start = std::chrono::steady_clock::now();

  // Periodic metrics dumps, one exposition block per tick prefixed with a
  // `# dump N` comment. Counters are monotone across blocks — the CLI test
  // checks exactly that.
  std::atomic<bool> metrics_stop{false};
  std::atomic<int> metrics_dumps{0};
  std::thread metrics_writer;
  if (!metrics_out.empty()) {
    std::FILE* probe = std::fopen(metrics_out.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "cannot write --metrics-out %s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fclose(probe);
    metrics_writer = std::thread([&metrics_out, &metrics_stop,
                                  &metrics_dumps, metrics_interval_ms] {
      auto dump = [&metrics_out, &metrics_dumps] {
        std::FILE* f = std::fopen(metrics_out.c_str(), "a");
        if (f == nullptr) return;
        std::string text = rtr::obs::MetricsRegistry::Default().RenderText();
        std::fprintf(f, "# dump %d\n", metrics_dumps.fetch_add(1));
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      };
      while (!metrics_stop.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(metrics_interval_ms));
        dump();
      }
    });
  }

  // The ingestion writer: spaces the delta applications evenly across the
  // replay window so swaps land while queries are in flight. Readers are
  // never blocked — CatchUp builds the next generation off the reader lock
  // and publishes it with a pointer swap.
  std::atomic<bool> delta_failed{false};
  std::thread delta_writer;
  if (!delta_paths.empty()) {
    double window_seconds = num_queries / target_qps;
    delta_writer = std::thread([&store, &delta_paths, &delta_failed,
                                window_seconds, start] {
      for (size_t i = 0; i < delta_paths.size(); ++i) {
        std::this_thread::sleep_until(
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    window_seconds * static_cast<double>(i + 1) /
                    static_cast<double>(delta_paths.size() + 1))));
        rtr::StatusOr<uint64_t> next = store->CatchUp(delta_paths[i]);
        if (!next.ok()) {
          std::fprintf(stderr, "delta %s: %s\n", delta_paths[i].c_str(),
                       next.status().ToString().c_str());
          delta_failed.store(true);
          return;
        }
        std::printf("  [swap] %s -> generation %llu\n",
                    delta_paths[i].c_str(),
                    static_cast<unsigned long long>(*next));
      }
    });
  }

  int accepted = 0;
  for (int i = 0; i < num_queries; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    interval * i));
    rtr::serve::ServeRequest request;
    request.params = params;
    if (replay.empty()) {
      request.query = {pool[static_cast<size_t>(
          rng.NextUint64(pool.size()))]};
      request.deadline_millis = default_deadline_ms;
    } else {
      request.query = {replay[static_cast<size_t>(i)].node};
      request.deadline_millis = replay[static_cast<size_t>(i)].deadline_millis;
    }
    rtr::Status submitted = service->SubmitAsync(
        std::move(request),
        [&done_count](const rtr::serve::ServeResponse&) {
          done_count.fetch_add(1);
        });
    if (submitted.ok()) ++accepted;
  }
  if (delta_writer.joinable()) delta_writer.join();
  service->Shutdown();  // drains everything admitted

  // One rendered exposition serves both consumers: printed as the human
  // summary and appended verbatim as the final --metrics-out dump, so the
  // two agree field-for-field by construction.
  std::string rendered = rtr::obs::MetricsRegistry::Default().RenderText();
  if (metrics_writer.joinable()) {
    metrics_stop.store(true);
    metrics_writer.join();
  }
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "# dump %d\n", metrics_dumps.fetch_add(1));
      std::fwrite(rendered.data(), 1, rendered.size(), f);
      std::fclose(f);
    }
  }
  rtr::serve::ServiceStats stats = service->stats();
  // Rejection reasons split out (not inferred from the aggregate), plus
  // queue wait per predicted-cost class.
  std::printf("\nadmission: accepted %llu, rejected %llu (queue overflow "
              "%llu, predicted-deadline shed %llu, stopping %llu)\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.shed_overflow),
              static_cast<unsigned long long>(stats.shed_predicted),
              static_cast<unsigned long long>(stats.rejected -
                                              stats.shed_overflow -
                                              stats.shed_predicted));
  for (size_t c = 0; c < rtr::serve::kNumCostClasses; ++c) {
    const auto& wait = stats.queue_wait[c];
    if (wait.count == 0) continue;
    std::printf("queue wait [%s]: %llu queries, mean %.3fms, p99 %.3fms\n",
                rtr::serve::CostClassName(
                    static_cast<rtr::serve::CostClass>(c)),
                static_cast<unsigned long long>(wait.count),
                wait.mean_millis, wait.p99_millis);
  }
  if (options.scheduler.enabled) {
    std::printf("scheduler: %llu widened-epsilon queries\n",
                static_cast<unsigned long long>(stats.eps_widened));
  }
  if (remote_cluster != nullptr) {
    const rtr::dist::WireTraffic w = remote_cluster->total_wire();
    std::printf("net: sent %llu frames / %llu bytes, received %llu frames / "
                "%llu bytes, %llu retries, %llu reconnects, %llu timeouts, "
                "%llu sheds\n",
                static_cast<unsigned long long>(w.frames_sent),
                static_cast<unsigned long long>(w.bytes_sent),
                static_cast<unsigned long long>(w.frames_received),
                static_cast<unsigned long long>(w.bytes_received),
                static_cast<unsigned long long>(w.retries),
                static_cast<unsigned long long>(w.reconnects),
                static_cast<unsigned long long>(w.timeouts),
                static_cast<unsigned long long>(w.sheds));
  }
  std::printf("\nmetrics (exposition; field-for-field the final "
              "--metrics-out dump):\n");
  std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  if (trace_n > 0) {
    std::printf("\nslowest traces (of %llu completed):\n",
                static_cast<unsigned long long>(stats.completed));
    for (const std::string& json : service->SlowestTraces()) {
      std::printf("%s\n", json.c_str());
    }
  }
  if (delta_failed.load()) return 1;
  return done_count.load() == accepted ? 0 : 1;
}

// gp-serve shutdown flag, set by SIGTERM/SIGINT so the shard can stop its
// loop thread, close its listener and connections, and exit 0 (the CLI net
// test asserts exactly this).
volatile std::sig_atomic_t g_gp_serve_signal = 0;

void GpServeSignalHandler(int signum) { g_gp_serve_signal = signum; }

// Hosts one GraphProcessor shard over TCP: `rtr gp-serve --graph g.rtrsnap
// --shard k/N [--port P] [--mmap]`. Prints the bound port (supports
// --port 0) and serves until SIGTERM/SIGINT.
int CmdGpServe(int argc, char** argv) {
  const Flags flags(argc, argv, "gp-serve", {"graph", "shard", "port", "mmap"});
  const std::string shard_spec = flags.GetString("shard", "");
  int shard = -1;
  int num_gps = 0;
  if (std::sscanf(shard_spec.c_str(), "%d/%d", &shard, &num_gps) != 2 ||
      shard < 0 || num_gps < 1 || shard >= num_gps) {
    std::fprintf(stderr, "--shard must be k/N with 0 <= k < N, got '%s'\n",
                 shard_spec.c_str());
    return 2;
  }
  int port = flags.GetInt("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return 2;
  }
  uint64_t generation = 0;
  std::shared_ptr<const Graph> graph;
  const int rc = LoadServedGraph(flags, &graph, &generation);
  if (rc != 0) return rc;

  rtr::net::GpServerOptions options;
  options.port = static_cast<uint16_t>(port);
  rtr::StatusOr<std::unique_ptr<rtr::net::GpServer>> server =
      rtr::net::GpServer::Start(graph, shard, num_gps, generation, options);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot start gp server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  auto registrations =
      (*server)->RegisterMetrics(&rtr::obs::MetricsRegistry::Default());

  std::signal(SIGTERM, GpServeSignalHandler);
  std::signal(SIGINT, GpServeSignalHandler);
  std::printf("gp-serve shard %d/%d listening on port %u (%zu/%zu nodes, "
              "generation %llu)\n",
              shard, num_gps, (*server)->port(),
              (*server)->gp().num_owned_nodes(), graph->num_nodes(),
              static_cast<unsigned long long>(generation));
  std::fflush(stdout);  // scripts grep the port line before connecting

  while (g_gp_serve_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  std::printf("gp-serve shard %d/%d: clean shutdown (signal %d; served "
              "%llu fetches / %llu records over %llu connections "
              "(%llu refused))\n",
              shard, num_gps, static_cast<int>(g_gp_serve_signal),
              static_cast<unsigned long long>((*server)->gp().fetch_requests()),
              static_cast<unsigned long long>((*server)->gp().records_served()),
              static_cast<unsigned long long>(
                  (*server)->connections_accepted()),
              static_cast<unsigned long long>(
                  (*server)->connections_refused()));
  return 0;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: rtr <generate|convert|info|diff|apply-delta|rank|"
               "topk|serve|gp-serve> [--flag value ...]\n"
               "       rtr convert <in> <out>   (text <-> binary snapshot, "
               "auto-detected)\n"
               "       rtr info <file>          (snapshot/delta header, or "
               "text graph summary)\n"
               "       rtr diff <base> <next> <out.rtrdelta>\n"
               "       rtr apply-delta <base> <delta> [<delta> ...] "
               "<out.rtrsnap>\n"
               "       rtr serve --graph <snapshot> [--mmap]  (zero-copy "
               "mapped load)\n"
               "       rtr serve --scheduler [--deadline-ms D]\n"
               "                 [--eps-band MAX] [--replay stream.rtrq]\n"
               "                                (cost-model admission: "
               "SJF; a request that\n"
               "                                 would miss its deadline "
               "runs at --eps-band\n"
               "                                 if that meets it, else "
               "is shed)\n"
               "       rtr gp-serve --graph <snapshot> --shard k/N "
               "[--port P] [--mmap]\n"
               "                                (host one graph-processor "
               "shard over TCP;\n"
               "                                 --port 0 picks a free port, "
               "printed on stdout)\n"
               "       rtr serve --graph <snapshot> --gps "
               "host:port[,host:port...]\n"
               "                                (front remote gp-serve "
               "shards instead of\n"
               "                                 in-process GPs)\n"
               "see the header of tools/rtr_cli.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  // --help anywhere (including `rtr <command> --help`) wins before the
  // strict --flag/value parser sees it.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
  }
  if (argc < 2 || std::strcmp(argv[1], "help") == 0) {
    PrintUsage(stdout);
    return 0;
  }
  std::string command = argv[1];
  // convert/diff/apply-delta take positionals; info accepts both forms.
  // Every other subcommand parses its own --flag list.
  if (command == "convert") return CmdConvert(argc, argv);
  if (command == "diff") return CmdDiff(argc, argv);
  if (command == "apply-delta") return CmdApplyDelta(argc, argv);
  if (command == "info" && argc == 3 &&
      std::strncmp(argv[2], "--", 2) != 0) {
    return CmdInfoPath(argv[2]);
  }
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "info") return CmdInfo(argc, argv);
  if (command == "rank") return CmdRank(argc, argv);
  if (command == "topk") return CmdTopK(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "gp-serve") return CmdGpServe(argc, argv);
  PrintUsage(stderr);
  return 2;
}
