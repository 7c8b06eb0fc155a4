#include "serve/result_cache.h"

#include <algorithm>
#include <bit>

namespace rtr::serve {

namespace {

// SplitMix64 finalizer; mixes each field into the running hash.
inline size_t Mix(size_t h, uint64_t v) {
  uint64_t x = static_cast<uint64_t>(h) ^ (v + 0x9e3779b97f4a7c15ULL +
                                           (static_cast<uint64_t>(h) << 6));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

inline uint64_t DoubleBits(double d) {
  // operator== compares doubles numerically, so the hash must give equal
  // keys equal hashes: fold -0.0 onto +0.0 (they compare equal but differ
  // in bit pattern). NaN fields never compare equal, so any hash works.
  if (d == 0.0) d = 0.0;
  return std::bit_cast<uint64_t>(d);
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  size_t h = Mix(0, key.query.size());
  for (NodeId v : key.query) h = Mix(h, v);
  h = Mix(h, static_cast<uint64_t>(key.k));
  h = Mix(h, DoubleBits(key.epsilon));
  h = Mix(h, DoubleBits(key.alpha));
  h = Mix(h, static_cast<uint64_t>(key.m_f));
  h = Mix(h, static_cast<uint64_t>(key.m_t));
  h = Mix(h, static_cast<uint64_t>(key.scheme));
  h = Mix(h, key.generation);
  return h;
}

ResultCache::ResultCache(size_t capacity, size_t num_shards)
    : shards_(std::max<size_t>(1, num_shards)) {
  capacity = std::max<size_t>(1, capacity);
  per_shard_capacity_ =
      (capacity + shards_.size() - 1) / shards_.size();  // ceil
  // All caches in the process share one series per counter; duplicates
  // merge at render time (obs/metrics.h).
  auto& registry = obs::MetricsRegistry::Default();
  registrations_.push_back(
      registry.RegisterCounter("rtr_cache_hits_total", {}, &hits_));
  registrations_.push_back(
      registry.RegisterCounter("rtr_cache_misses_total", {}, &misses_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_cache_insertions_total", {}, &insertions_));
  registrations_.push_back(
      registry.RegisterCounter("rtr_cache_evictions_total", {}, &evictions_));
  registrations_.push_back(registry.RegisterCounter(
      "rtr_cache_invalidations_total", {}, &invalidations_));
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_cache_entries", {}, [this] { return static_cast<double>(size()); }));
}

ResultCache::Shard& ResultCache::ShardOf(size_t hash) const {
  return shards_[hash % shards_.size()];
}

std::shared_ptr<const core::TopKResult> ResultCache::Lookup(
    const CacheKey& key) {
  Shard& shard = ShardOf(CacheKeyHash()(key));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.Increment();
  return it->second->second;
}

void ResultCache::Insert(const CacheKey& key, core::TopKResult result) {
  auto value = std::make_shared<const core::TopKResult>(std::move(result));
  Shard& shard = ShardOf(CacheKeyHash()(key));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.index.emplace(key, shard.lru.begin());
  insertions_.Increment();
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.Increment();
  }
}

size_t ResultCache::EvictGenerationsBelow(uint64_t floor) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->first.generation < floor) {
        shard.index.erase(it->first);
        it = shard.lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.Add(dropped);
  return dropped;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  stats.hits = hits_.value();
  stats.misses = misses_.value();
  stats.insertions = insertions_.value();
  stats.evictions = evictions_.value();
  stats.invalidations = invalidations_.value();
  return stats;
}

}  // namespace rtr::serve
