// Golden answers of the online top-K engine. Every other engine test
// compares two paths of one build (fresh vs reused workspace, local vs
// remote); this one pins the answers themselves, so a kernel rewrite that
// changes a single bound bit, a round count or the active set fails here.
//
// Each digest is an FNV-1a hash over, per query: every entry's node and the
// bit patterns of both bounds, `rounds`, `converged` and
// `active_node_ids`. The queries are a seeded sample of default-QLog
// phrases and of default-BibNet terms and papers, run at k = 10 and
// epsilon = 0.01 through one reused workspace. The constants were recorded
// from the engine before its Stage II sweeps moved to a gathered local CSR.
//
// The digests hold in Debug, Release and sanitizer builds because the build
// names no -march: baseline x86-64 has no fused multiply-add, so the
// compiler cannot contract a * b + c into one rounding at any -O level.
// (-std=c++20 alone does not turn contraction off in g++: with -mfma it
// still emits vfmadd.) A build that enables FMA may round differently and
// fail here.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/twosbound.h"
#include "core/workspace.h"
#include "datasets/bibnet.h"
#include "datasets/qlog.h"
#include "graph/graph.h"
#include "util/random.h"

namespace rtr::core {
namespace {

constexpr int kQLogPhrases = 256;
constexpr int kBibNetTerms = 32;
constexpr int kBibNetPapers = 32;

class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddResult(const TopKResult& result, Fnv1a* digest) {
  digest->Add(result.entries.size());
  for (const TopKEntry& e : result.entries) {
    digest->Add(e.node);
    digest->Add(std::bit_cast<uint64_t>(e.lower));
    digest->Add(std::bit_cast<uint64_t>(e.upper));
  }
  digest->Add(static_cast<uint64_t>(result.rounds));
  digest->Add(result.converged ? 1 : 0);
  digest->Add(result.active_node_ids.size());
  for (NodeId v : result.active_node_ids) digest->Add(v);
}

// `count` distinct candidates with at least one out-arc, in seeded order.
std::vector<NodeId> SampleQueries(const Graph& g,
                                  const std::vector<NodeId>& candidates,
                                  int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> order = candidates;
  rng.Shuffle(order);
  std::vector<NodeId> picked;
  for (NodeId v : order) {
    if (g.out_degree(v) == 0) continue;
    picked.push_back(v);
    if (static_cast<int>(picked.size()) == count) break;
  }
  return picked;
}

uint64_t Digest(const Graph& g, const std::vector<NodeId>& queries,
                TopKScheme scheme) {
  TopKParams params;
  params.k = 10;
  params.epsilon = 0.01;
  params.scheme = scheme;
  QueryWorkspace ws;
  TopKResult result;
  Fnv1a digest;
  for (NodeId q : queries) {
    EXPECT_TRUE(TopKRoundTripRank(g, {q}, params, ws, &result).ok());
    AddResult(result, &digest);
  }
  return digest.value();
}

struct Golden {
  TopKScheme scheme;
  uint64_t digest;
};

void ExpectDigests(const Graph& g, const std::vector<NodeId>& queries,
                   const std::vector<Golden>& goldens) {
  for (const Golden& golden : goldens) {
    const uint64_t digest = Digest(g, queries, golden.scheme);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, golden.digest)
        << TopKSchemeName(golden.scheme) << " digest is " << hex;
  }
}

TEST(EngineGoldenTest, QLogPhrases) {
  const datasets::QLog log =
      datasets::QLog::Generate(datasets::QLogConfig{}).value();
  const Graph& g = log.graph();
  const std::vector<NodeId> queries = SampleQueries(
      g, g.NodesOfType(log.phrase_type()), kQLogPhrases, 31);
  ASSERT_EQ(static_cast<int>(queries.size()), kQLogPhrases);
  ExpectDigests(g, queries,
                {{TopKScheme::k2SBound, 0x90d34c0a321abee8ull},
                 {TopKScheme::kGupta, 0x97762cd26cf8cedaull},
                 {TopKScheme::kSarkar, 0x16fe1892529a582dull},
                 {TopKScheme::kGPlusS, 0x973431993669a648ull}});
}

class EngineGoldenBibNetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    net_ = new datasets::BibNet(
        datasets::BibNet::Generate(datasets::BibNetConfig{}).value());
  }
  static void TearDownTestSuite() {
    delete net_;
    net_ = nullptr;
  }
  static datasets::BibNet* net_;
};

datasets::BibNet* EngineGoldenBibNetTest::net_ = nullptr;

TEST_F(EngineGoldenBibNetTest, Terms) {
  const Graph& g = net_->graph();
  const std::vector<NodeId> queries = SampleQueries(
      g, g.NodesOfType(net_->term_type()), kBibNetTerms, 32);
  ASSERT_EQ(static_cast<int>(queries.size()), kBibNetTerms);
  ExpectDigests(g, queries,
                {{TopKScheme::k2SBound, 0x32e3195924444ddeull},
                 {TopKScheme::kGupta, 0x617b556ab86bcbdaull},
                 {TopKScheme::kSarkar, 0xc79e5995fb7cc6cfull},
                 {TopKScheme::kGPlusS, 0x34e4638fb38fe165ull}});
}

TEST_F(EngineGoldenBibNetTest, Papers) {
  const Graph& g = net_->graph();
  const std::vector<NodeId> queries = SampleQueries(
      g, g.NodesOfType(net_->paper_type()), kBibNetPapers, 33);
  ASSERT_EQ(static_cast<int>(queries.size()), kBibNetPapers);
  ExpectDigests(g, queries,
                {{TopKScheme::k2SBound, 0x362fdff1f171a8d2ull},
                 {TopKScheme::kGupta, 0x3ad9fab225e2f20dull},
                 {TopKScheme::kSarkar, 0xdb64aa71c4962783ull},
                 {TopKScheme::kGPlusS, 0x35b05d099c253f99ull}});
}

}  // namespace
}  // namespace rtr::core
