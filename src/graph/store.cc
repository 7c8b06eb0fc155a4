#include "graph/store.h"

#include <utility>

#include "graph/snapshot.h"
#include "util/logging.h"
#include "util/timer.h"

namespace rtr {

GraphStore::GraphStore(std::shared_ptr<const Graph> initial,
                       uint64_t generation) {
  CHECK(initial != nullptr) << "GraphStore needs an initial generation";
  current_ = std::make_shared<const Generation>(
      Generation{generation, std::move(initial)});
  // Lifecycle series for the exposition: the current generation id, how
  // many generations were published here, how many are still pinned by
  // in-flight readers, the pin rate, and the snapshot load and delta apply
  // times. Callbacks take mu_ (registry mutex -> mu_; nothing takes them in
  // the other order).
  auto& registry = obs::MetricsRegistry::Default();
  registrations_.push_back(
      registry.RegisterCounter("rtr_store_pins_total", {}, &pins_));
  registrations_.push_back(registry.RegisterHistogram(
      "rtr_store_load_ms", {}, &load_latencies_));
  registrations_.push_back(registry.RegisterHistogram(
      "rtr_store_apply_ms", {}, &apply_latencies_));
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_store_generation", {},
      [this] { return static_cast<double>(this->generation()); }));
  registrations_.push_back(registry.RegisterCallbackCounter(
      "rtr_store_generations_published_total", {},
      [this] { return this->swap_count(); }));
  registrations_.push_back(registry.RegisterCallbackGauge(
      "rtr_store_live_generations", {},
      [this] { return static_cast<double>(this->live_generations()); }));
}

GraphStore::GraphStore(Graph initial, uint64_t generation)
    : GraphStore(std::make_shared<const Graph>(std::move(initial)),
                 generation) {}

StatusOr<std::unique_ptr<GraphStore>> GraphStore::Open(
    const std::string& path, MapMode map_mode) {
  const WallTimer timer;
  uint64_t generation = 0;
  StatusOr<Graph> loaded = LoadGraphAuto(path, &generation, map_mode);
  RTR_RETURN_IF_ERROR(loaded.status());
  const size_t nodes = loaded->num_nodes();
  auto store =
      std::make_unique<GraphStore>(std::move(loaded).value(), generation);
  const double millis = timer.ElapsedMillis();
  store->load_latencies_.Record(millis);
  LOG(INFO) << "loaded generation " << generation << " (" << nodes
            << " nodes) from " << path << " in " << millis << " ms";
  return store;
}

PinnedGraph GraphStore::Pin() const {
  pins_.Increment();
  std::shared_ptr<const Generation> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = current_;
  }
  // Aliasing pointer: the pin shares the Generation's control block, so a
  // retired generation's weak_ptr in retired_ expires exactly when its last
  // reader drains — live_generations() is the RCU epoch counter.
  return PinnedGraph{
      std::shared_ptr<const Graph>(current, current->graph.get()),
      current->id};
}

std::shared_ptr<const Graph> GraphStore::Current() const {
  return Pin().graph;
}

uint64_t GraphStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->id;
}

uint64_t GraphStore::swap_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swap_count_;
}

size_t GraphStore::live_generations() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 1;  // the current generation
  for (const std::weak_ptr<const Generation>& retired : retired_) {
    if (!retired.expired()) ++live;
  }
  return live;
}

void GraphStore::PublishLocked(Generation next) {
  auto published = std::make_shared<const Generation>(std::move(next));
  const uint64_t id = published->id;
  const size_t nodes = published->graph->num_nodes();
  const size_t arcs = published->graph->num_arcs();
  size_t still_pinned = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Compact drained entries so the retire list tracks only generations a
    // reader can still touch.
    std::erase_if(retired_,
                  [](const std::weak_ptr<const Generation>& retired) {
                    return retired.expired();
                  });
    retired_.push_back(current_);
    current_ = std::move(published);
    ++swap_count_;
    still_pinned = retired_.size();
  }
  LOG(INFO) << "published generation " << id << " (" << nodes << " nodes, "
            << arcs << " arcs); " << still_pinned
            << " retired generation(s) awaiting reader drain";
}

StatusOr<uint64_t> GraphStore::Apply(const GraphDelta& delta) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  // Writers are serialized, so the current generation cannot move under us
  // between this check and the publish below.
  PinnedGraph base = Pin();
  if (delta.base_generation != base.generation) {
    LOG(WARNING) << "rejecting stale delta: targets generation "
                 << delta.base_generation << ", store is at "
                 << base.generation;
    return Status::FailedPrecondition(
        "delta targets generation " + std::to_string(delta.base_generation) +
        " but the store is at " + std::to_string(base.generation));
  }
  // The expensive part runs with no store lock held: readers keep pinning
  // the old generation while the new columns are assembled.
  const WallTimer timer;
  StatusOr<Graph> next = ApplyDelta(*base.graph, delta);
  RTR_RETURN_IF_ERROR(next.status());
  const uint64_t next_id = base.generation + 1;
  PublishLocked(Generation{
      next_id, std::make_shared<const Graph>(std::move(next).value())});
  const double millis = timer.ElapsedMillis();
  apply_latencies_.Record(millis);
  LOG(INFO) << "applied delta as generation " << next_id << " in " << millis
            << " ms";
  return next_id;
}

Status GraphStore::Publish(Graph next, uint64_t generation) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const uint64_t current = this->generation();
  if (generation != current + 1) {
    return Status::FailedPrecondition(
        "publish of generation " + std::to_string(generation) +
        " out of order (store is at " + std::to_string(current) + ")");
  }
  PublishLocked(Generation{
      generation, std::make_shared<const Graph>(std::move(next))});
  return Status::OK();
}

StatusOr<uint64_t> GraphStore::CatchUp(const std::string& delta_path) {
  StatusOr<GraphDelta> delta = LoadGraphDeltaFromFile(delta_path);
  RTR_RETURN_IF_ERROR(delta.status());
  return Apply(*delta);
}

}  // namespace rtr
