#include "core/partition_cache.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace krak::core {

std::shared_ptr<const PartitionedDeck> PartitionCache::get(
    const mesh::InputDeck& deck, std::int32_t pes,
    partition::PartitionMethod method, std::uint64_t seed,
    const util::CancellationToken* cancel) {
  const std::uint64_t fingerprint = deck_fingerprint(deck);
  const Key key{fingerprint, pes, static_cast<std::int32_t>(method), seed};
  obs::Registry& registry = obs::global_registry();

  std::promise<std::shared_ptr<const PartitionedDeck>> promise;
  Future future;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++counters_.hits;
      future = it->second;
    } else {
      ++counters_.misses;
      owner = true;
      future = promise.get_future().share();
      entries_.emplace(key, future);
    }
  }

  if (owner) {
    registry.counter("campaign.partition_cache.misses").add();
    try {
      // Last checkpoint before the dominant cost: partitioning a large
      // deck runs for seconds, so an already blown budget must not
      // start it. The catch below propagates the CancelledError to
      // every waiter and evicts the entry, so a retry recomputes.
      util::CancellationToken::check(cancel, "partition cache miss");
      const std::shared_ptr<PartitionStore> disk = store();
      const PartitionStore::Key store_key{fingerprint, pes, method, seed};
      std::optional<partition::Partition> loaded;
      if (disk != nullptr) loaded = disk->load(store_key);
      partition::Partition part =
          loaded.has_value()
              ? std::move(*loaded)
              : partition::partition_deck(deck, pes, method, seed);
      if (disk != nullptr && !loaded.has_value()) {
        disk->save(store_key, part);
      }
      auto stats =
          std::make_shared<const partition::PartitionStats>(deck, part);
      promise.set_value(std::make_shared<const PartitionedDeck>(
          PartitionedDeck{std::move(part), std::move(stats)}));
    } catch (...) {
      // Propagate to every waiter, then evict so the configuration is
      // retried rather than permanently poisoned.
      promise.set_exception(std::current_exception());
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(key);
      }
      throw;
    }
  } else {
    registry.counter("campaign.partition_cache.hits").add();
  }
  return future.get();
}

void PartitionCache::set_store(std::shared_ptr<PartitionStore> store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
}

std::shared_ptr<PartitionStore> PartitionCache::store() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

void PartitionCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

PartitionCache::Counters PartitionCache::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

PartitionCache& PartitionCache::global() {
  static PartitionCache cache;
  return cache;
}

}  // namespace krak::core
