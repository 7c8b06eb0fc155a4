#ifndef RTR_SERVE_RESULT_CACHE_H_
#define RTR_SERVE_RESULT_CACHE_H_

// Sharded LRU cache of top-K results for the query-serving subsystem
// (DESIGN.md §5). Production query streams are heavily skewed — popular
// queries repeat — so caching whole TopKResults turns the common case into a
// hash lookup. Sharding by key hash keeps lock contention proportional to
// 1/num_shards under concurrent workers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/twosbound.h"
#include "graph/types.h"
#include "obs/metrics.h"

namespace rtr::serve {

// Everything that determines a TopKRoundTripRank answer — the request
// parameters plus the graph generation (graph/store.h) they ran against.
// Two requests with equal keys are guaranteed bit-identical results (the
// engine is deterministic), which is what makes the cache transparent:
// serving a hit is indistinguishable from re-running the query. A
// generation swap changes the key, so entries computed on a retired
// generation are simply never hit again; EvictGenerationsBelow() reclaims
// their memory.
struct CacheKey {
  Query query;  // query nodes exactly as submitted; a permutation of the
                // same nodes is a different key even though the engine's
                // uniform mixture makes it rank-equivalent
  int k = 0;
  double epsilon = 0.0;
  double alpha = 0.0;
  int m_f = 0;
  int m_t = 0;
  core::TopKScheme scheme = core::TopKScheme::k2SBound;
  // Graph generation the result was computed on (0 for static graphs).
  uint64_t generation = 0;

  bool operator==(const CacheKey&) const = default;

  // Builds the key of one request against one graph generation.
  static CacheKey Of(const Query& query, const core::TopKParams& params,
                     uint64_t generation = 0) {
    return CacheKey{query,        params.k,   params.epsilon,
                    params.alpha, params.m_f, params.m_t,
                    params.scheme, generation};
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

// Monotonic counters; read with stats(). Hits + misses == lookups.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;     // LRU capacity evictions
  uint64_t invalidations = 0; // entries dropped by EvictGenerationsBelow
};

// Thread-safe sharded LRU map CacheKey -> TopKResult. Capacity is global
// and split evenly across shards (each shard evicts its own LRU tail), so
// the resident entry count never exceeds `capacity` rounded up to a
// multiple of num_shards.
class ResultCache {
 public:
  // capacity >= 1 entries overall; num_shards >= 1 (both clamped up to 1).
  explicit ResultCache(size_t capacity, size_t num_shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // On hit, refreshes the entry's recency and returns a shared handle to
  // the immutable cached result; nullptr on miss. Entries are stored behind
  // shared_ptr so the critical section is a refcount bump and a list
  // splice, never a deep copy of the result (hot keys would otherwise
  // serialize workers on the shard mutex).
  std::shared_ptr<const core::TopKResult> Lookup(const CacheKey& key);

  // Inserts (or refreshes) the entry, evicting the shard's least recently
  // used entry when the shard is full.
  void Insert(const CacheKey& key, core::TopKResult result);

  // Drops every entry whose key.generation is below `floor` and returns
  // how many were dropped (counted as invalidations, not evictions). The
  // serving layer calls this when it observes a generation swap: stale
  // entries are unreachable anyway (the generation is part of the key), so
  // this is purely memory reclamation. O(resident entries), taking one
  // shard lock at a time.
  size_t EvictGenerationsBelow(uint64_t floor);

  size_t size() const;
  size_t num_shards() const { return shards_.size(); }
  CacheStats stats() const;

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<std::pair<CacheKey, std::shared_ptr<const core::TopKResult>>>
        lru;
    std::unordered_map<CacheKey, decltype(lru)::iterator, CacheKeyHash> index;
  };

  Shard& ShardOf(size_t hash) const;

  size_t per_shard_capacity_;
  mutable std::vector<Shard> shards_;
  // Counters double as the cache's metrics-registry series
  // (rtr_cache_*_total); CacheStats stays as a snapshot view over them.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter insertions_;
  obs::Counter evictions_;
  obs::Counter invalidations_;
  // Declared last: unregisters before the counters above are destroyed.
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace rtr::serve

#endif  // RTR_SERVE_RESULT_CACHE_H_
