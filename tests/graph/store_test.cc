// GraphStore (graph/store.h): pin/publish/retire semantics of the RCU-style
// generation swap, the stale-delta handshake, disk bring-up + catch-up, and
// a swap-under-load stress run (the TSan target for the serving path's
// live-update story).
#include "graph/store.h"

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/graph_testing.h"
#include "graph/io.h"
#include "graph/snapshot.h"
#include "obs/metrics.h"

namespace rtr {
namespace {

Graph ChainGraph(size_t n) {
  GraphBuilder b;
  b.AddNodes(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    b.AddDirectedEdge(v, v + 1, 1.0);
    b.AddDirectedEdge(v + 1, v, 0.5);
  }
  return b.Build().value();
}

// The delta that appends one node to an n-node chain graph.
GraphDelta GrowChain(uint64_t base_generation, size_t n) {
  GraphDelta delta;
  delta.base_generation = base_generation;
  delta.added_node_types = {kUntypedNode};
  delta.added_arcs = {
      {static_cast<NodeId>(n - 1), static_cast<NodeId>(n), 1.0},
      {static_cast<NodeId>(n), static_cast<NodeId>(n - 1), 0.5}};
  return delta;
}

// Samples in a process-wide rtr_store_* histogram, merged over every live
// store.
uint64_t Samples(const std::string& histogram) {
  const std::string text = obs::MetricsRegistry::Default().RenderText();
  const std::string key = histogram + "_count ";
  const size_t at = text.find(key);
  return at == std::string::npos ? 0
                                 : std::stoull(text.substr(at + key.size()));
}
uint64_t ApplySamples() { return Samples("rtr_store_apply_ms"); }
uint64_t LoadSamples() { return Samples("rtr_store_load_ms"); }

TEST(GraphStoreTest, InitialStateAndPin) {
  GraphStore store(ChainGraph(4), 7);
  EXPECT_EQ(store.generation(), 7u);
  EXPECT_EQ(store.swap_count(), 0u);
  EXPECT_EQ(store.live_generations(), 1u);

  PinnedGraph pinned = store.Pin();
  EXPECT_EQ(pinned.generation, 7u);
  ASSERT_NE(pinned.graph, nullptr);
  EXPECT_EQ(pinned.graph->num_nodes(), 4u);
  EXPECT_EQ(store.Current().get(), pinned.graph.get());
}

TEST(GraphStoreTest, ApplyAdvancesGenerationWithoutDisturbingReaders) {
  GraphStore store(ChainGraph(4));
  PinnedGraph before = store.Pin();
  const uint64_t samples = ApplySamples();

  StatusOr<uint64_t> gen = store.Apply(GrowChain(0, 4));
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(*gen, 1u);
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.swap_count(), 1u);
  // The apply is timed once.
  EXPECT_EQ(ApplySamples(), samples + 1);

  // The pre-swap reader still holds an intact generation 0.
  EXPECT_EQ(before.generation, 0u);
  EXPECT_EQ(before.graph->num_nodes(), 4u);
  PinnedGraph after = store.Pin();
  EXPECT_EQ(after.generation, 1u);
  EXPECT_EQ(after.graph->num_nodes(), 5u);
  EXPECT_NE(after.graph.get(), before.graph.get());
}

TEST(GraphStoreTest, RetiredGenerationLivesUntilItsLastReaderDrains) {
  GraphStore store(ChainGraph(4));
  auto pin = std::make_unique<PinnedGraph>(store.Pin());
  ASSERT_TRUE(store.Apply(GrowChain(0, 4)).ok());
  // Current generation plus the retired-but-pinned one.
  EXPECT_EQ(store.live_generations(), 2u);
  pin.reset();  // last reader of generation 0 drains
  EXPECT_EQ(store.live_generations(), 1u);
}

TEST(GraphStoreTest, StaleDeltaRejected) {
  GraphStore store(ChainGraph(4), 3);
  GraphDelta stale = GrowChain(2, 4);  // names generation 2, store is at 3
  const uint64_t samples = ApplySamples();
  StatusOr<uint64_t> gen = store.Apply(stale);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.generation(), 3u);
  EXPECT_EQ(store.swap_count(), 0u);
  EXPECT_EQ(ApplySamples(), samples);  // a rejected delta is not timed
}

TEST(GraphStoreTest, MalformedDeltaLeavesStoreUnchanged) {
  GraphStore store(ChainGraph(4));
  GraphDelta bad;
  bad.added_arcs = {{0, 99, 1.0}};  // dangling target
  const uint64_t samples = ApplySamples();
  StatusOr<uint64_t> gen = store.Apply(bad);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.generation(), 0u);
  EXPECT_EQ(store.Pin().graph->num_nodes(), 4u);
  EXPECT_EQ(ApplySamples(), samples);  // a rejected delta is not timed
}

TEST(GraphStoreTest, PublishEnforcesDenseGenerationIds) {
  GraphStore store(ChainGraph(4), 5);
  Status skip = store.Publish(ChainGraph(6), 7);  // 5 -> 7 skips 6
  ASSERT_FALSE(skip.ok());
  EXPECT_EQ(skip.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.Publish(ChainGraph(6), 6).ok());
  EXPECT_EQ(store.generation(), 6u);
  EXPECT_EQ(store.Pin().graph->num_nodes(), 6u);
}

TEST(GraphStoreTest, OpenSnapshotAndCatchUpFromDeltaFiles) {
  const std::string dir = testing::TempDir();
  const std::string base_path = dir + "/rtr_store_base.rtrsnap";
  const std::string d1_path = dir + "/rtr_store_d1.rtrdelta";
  const std::string d2_path = dir + "/rtr_store_d2.rtrdelta";
  ASSERT_TRUE(SaveGraphSnapshotToFile(ChainGraph(4), base_path, 5).ok());
  ASSERT_TRUE(SaveGraphDeltaToFile(GrowChain(5, 4), d1_path).ok());
  ASSERT_TRUE(SaveGraphDeltaToFile(GrowChain(6, 5), d2_path).ok());

  // The caught-up store matches an in-memory application chain.
  GraphStore reference(ChainGraph(4), 5);
  ASSERT_TRUE(reference.Apply(GrowChain(5, 4)).ok());
  ASSERT_TRUE(reference.Apply(GrowChain(6, 5)).ok());

  // Either backing of the base; the deltas build owning generations on top.
  for (const MapMode backing : {MapMode::kNever, MapMode::kPrefer}) {
    SCOPED_TRACE(backing == MapMode::kPrefer ? "kPrefer" : "kNever");
    StatusOr<std::unique_ptr<GraphStore>> store =
        GraphStore::Open(base_path, backing);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->generation(), 5u);
    EXPECT_EQ((*store)->Pin().graph->is_mapped(),
              backing == MapMode::kPrefer);

    // Replaying out of order is a FailedPrecondition, not a rebase.
    StatusOr<uint64_t> wrong = (*store)->CatchUp(d2_path);
    ASSERT_FALSE(wrong.ok());
    EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

    ASSERT_EQ((*store)->CatchUp(d1_path).value(), 6u);
    ASSERT_EQ((*store)->CatchUp(d2_path).value(), 7u);
    EXPECT_EQ((*store)->Pin().graph->num_nodes(), 6u);
    // Every column, including the rows the deltas left alone, whose
    // probabilities are re-derived from the loaded base.
    ExpectGraphsIdentical(*(*store)->Pin().graph, *reference.Pin().graph);
  }
}

// A successful Open, on either backing, leaves exactly one load sample in
// the new store's rtr_store_load_ms; a failed Open leaves none.
TEST(GraphStoreTest, OpenTimesOnlySuccessfulLoads) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/rtr_store_timed.rtrsnap";
  const std::string truncated_path = dir + "/rtr_store_truncated.rtrsnap";
  ASSERT_TRUE(SaveGraphSnapshotToFile(ChainGraph(8), path, 3).ok());
  std::ostringstream bytes;
  bytes << std::ifstream(path, std::ios::binary).rdbuf();
  const std::string full = bytes.str();
  std::ofstream(truncated_path, std::ios::binary | std::ios::trunc)
      << full.substr(0, full.size() / 2);

  for (const MapMode backing : {MapMode::kNever, MapMode::kPrefer}) {
    SCOPED_TRACE(backing == MapMode::kPrefer ? "kPrefer" : "kNever");
    const uint64_t before = LoadSamples();
    {
      StatusOr<std::unique_ptr<GraphStore>> store =
          GraphStore::Open(path, backing);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      EXPECT_EQ(LoadSamples(), before + 1);
    }
    EXPECT_EQ(LoadSamples(), before);  // the sample left with its store
    EXPECT_FALSE(GraphStore::Open(truncated_path, backing).ok());
    EXPECT_FALSE(GraphStore::Open(dir + "/rtr_store_missing.rtrsnap", backing)
                     .ok());
    EXPECT_EQ(LoadSamples(), before);
  }
}

TEST(GraphStoreTest, OpenTextGraphStartsAtGenerationZero) {
  const std::string path = testing::TempDir() + "/rtr_store_text.txt";
  ASSERT_TRUE(SaveGraphToFile(ChainGraph(3), path).ok());
  StatusOr<std::unique_ptr<GraphStore>> store = GraphStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->generation(), 0u);
  EXPECT_EQ((*store)->Pin().graph->num_nodes(), 3u);
}

TEST(GraphStoreTest, CatchUpRejectsCorruptDeltaFile) {
  const std::string path = testing::TempDir() + "/rtr_store_corrupt.rtrdelta";
  std::ostringstream bytes;
  ASSERT_TRUE(SaveGraphDelta(GrowChain(0, 4), bytes).ok());
  std::string buf = bytes.str();
  buf[buf.size() - 1] ^= 0x01;  // checksum mismatch
  std::ofstream(path, std::ios::binary | std::ios::trunc) << buf;

  GraphStore store(ChainGraph(4));
  StatusOr<uint64_t> gen = store.CatchUp(path);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kIoError);
  EXPECT_EQ(store.generation(), 0u);
}

// The RCU claim under load: readers pin and traverse generations while a
// writer publishes a stream of them; every pinned graph must stay
// internally consistent for the whole pin. Run under TSan in CI.
TEST(GraphStoreTest, SwapUnderLoadKeepsPinnedGenerationsConsistent) {
  constexpr size_t kInitialNodes = 16;
  constexpr int kSwaps = 24;
  constexpr int kReaders = 3;
  GraphStore store(ChainGraph(kInitialNodes));

  std::atomic<bool> done{false};
  std::atomic<uint64_t> traversals{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        PinnedGraph pinned = store.Pin();
        // Generations are published in order; a reader can never observe
        // them going backwards.
        ASSERT_GE(pinned.generation, last_seen);
        last_seen = pinned.generation;
        // Each generation appends one node to the chain, so the node count
        // identifies the generation — a torn read would break this.
        ASSERT_EQ(pinned.graph->num_nodes(),
                  kInitialNodes + pinned.generation);
        // Full forward chain walk (targets are sorted, so the forward edge
        // is each row's last entry): every offset/target read races with
        // the writer unless the swap is properly synchronized.
        size_t hops = 0;
        for (NodeId v = 0; v + 1 < pinned.graph->num_nodes(); ++v) {
          std::span<const NodeId> targets = pinned.graph->out_targets(v);
          ASSERT_FALSE(targets.empty());
          ASSERT_EQ(targets.back(), v + 1);
          ++hops;
        }
        ASSERT_EQ(hops + 1, pinned.graph->num_nodes());
        traversals.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    StatusOr<uint64_t> gen = store.Apply(
        GrowChain(static_cast<uint64_t>(i), kInitialNodes + i));
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
  // Keep serving until every reader has demonstrably walked a pin, so the
  // test cannot pass vacuously when the writer outruns the scheduler.
  while (traversals.load(std::memory_order_relaxed) <
         static_cast<uint64_t>(kReaders)) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(store.generation(), static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(store.swap_count(), static_cast<uint64_t>(kSwaps));
  EXPECT_GE(traversals.load(), static_cast<uint64_t>(kReaders));
  // All readers drained: only the current generation is live.
  EXPECT_EQ(store.live_generations(), 1u);
}

}  // namespace
}  // namespace rtr
