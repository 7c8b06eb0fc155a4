#ifndef RTR_GRAPH_STORE_H_
#define RTR_GRAPH_STORE_H_

// Versioned graph generations with RCU-style publication (DESIGN.md §8).
//
// A GraphStore owns a sequence of immutable Graph generations. Readers pin
// the current generation with Pin() — a shared_ptr copy — and keep using it
// for the whole query even if a newer generation is published meanwhile;
// writers build the next generation OFF the store's lock (ApplyDelta is the
// expensive part) and publish it with a single pointer swap, so readers are
// never blocked by ingestion. A retired generation's memory is reclaimed
// when its last pinned reader drains (the shared_ptr refcount is the grace
// period); live_generations() reports how many retired generations are
// still pinned, the store's analogue of an RCU epoch counter.
//
// Writers are serialized among themselves (one delta applies at a time, in
// generation order); the generation id increments by exactly one per
// publish and every delta must name the generation it applies to — a stale
// delta is rejected instead of silently rebased.
//
// Disk catch-up (the v2 storage story): Open() brings a store up from a
// base snapshot (generation id in the snapshot header, graph/snapshot.h)
// and CatchUp() replays checksummed delta files (graph/delta.h) until the
// store reaches the producer's generation.
//
// Thread safety: every member is safe to call concurrently; Pin() is a
// mutex-protected pointer copy (no allocation, no graph access), and
// Apply/Publish/CatchUp hold the writer lock for the build but the reader
// lock only for the swap.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace rtr {

// A reader's lease on one generation: the graph pointer keeps the columns
// alive until the pin is dropped.
struct PinnedGraph {
  std::shared_ptr<const Graph> graph;
  uint64_t generation = 0;
};

class GraphStore {
 public:
  // Wraps an initial generation. The shared_ptr form is the ownership
  // handoff used by the serving layer; the value form is a convenience
  // that moves the graph into shared ownership.
  GraphStore(std::shared_ptr<const Graph> initial, uint64_t generation = 0);
  explicit GraphStore(Graph initial, uint64_t generation = 0);

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  // Process bring-up from a saved base: binary snapshots carry their
  // generation id in the header; text graphs start at generation 0.
  // `map_mode` selects the snapshot loader (graph/snapshot.h): the default
  // kAuto honors RTR_GRAPH_MMAP, kPrefer maps the file zero-copy.
  // A mapped base generation is safe here: Apply/CatchUp read the base only
  // through its column spans and assemble the next generation's columns
  // afresh (copy-on-write), never in place.
  static StatusOr<std::unique_ptr<GraphStore>> Open(
      const std::string& path, MapMode map_mode = MapMode::kAuto);

  // Pins the current generation for the caller's lifetime-of-use.
  PinnedGraph Pin() const;
  // The current generation's graph without the id (equivalent to Pin().graph).
  std::shared_ptr<const Graph> Current() const;
  uint64_t generation() const;
  // Generations published after construction.
  uint64_t swap_count() const;
  // Retired generations still pinned by in-flight readers, plus the current
  // one: 1 when fully drained.
  size_t live_generations() const;

  // Builds generation g+1 from the current generation g by applying
  // `delta`, then publishes it. Fails with FailedPrecondition when
  // delta.base_generation != generation() (stale or out-of-order delta) and
  // with ApplyDelta's InvalidArgument on malformed ops; the store is
  // unchanged on any failure. Returns the new generation id.
  StatusOr<uint64_t> Apply(const GraphDelta& delta);

  // Publishes an externally built graph as generation `generation`, which
  // must be exactly generation() + 1 (FailedPrecondition otherwise).
  Status Publish(Graph next, uint64_t generation);

  // Disk catch-up: loads a delta file and Apply()s it. A delta whose
  // base_generation does not match the current generation is rejected
  // (FailedPrecondition) — replay files in order.
  StatusOr<uint64_t> CatchUp(const std::string& delta_path);

 private:
  struct Generation {
    uint64_t id = 0;
    std::shared_ptr<const Graph> graph;
  };

  // Swaps in a new current generation and retires the old one.
  void PublishLocked(Generation next);

  // Serializes writers; held across the whole build-and-publish of one
  // delta so generation ids advance one at a time.
  std::mutex writer_mu_;
  // Guards current_ and retired_; readers hold it only for a pointer copy.
  mutable std::mutex mu_;
  std::shared_ptr<const Generation> current_;
  // Weak handles to retired generations, compacted opportunistically; an
  // expired entry means every reader of that generation has drained.
  std::vector<std::weak_ptr<const Generation>> retired_;
  uint64_t swap_count_ = 0;
  // Generation lifecycle metrics (rtr_store_*); the registry merges the
  // series of every store in the process. Declared after the state the
  // callback gauges read, before registrations_ (which must die first).
  mutable obs::Counter pins_;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace rtr

#endif  // RTR_GRAPH_STORE_H_
