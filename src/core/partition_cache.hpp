#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/partition_store.hpp"
#include "mesh/deck.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"
#include "util/cancellation.hpp"

namespace krak::core {

/// A partition plus the per-PE statistics derived from it, computed
/// once per (deck, pes, method, seed) configuration and shared by every
/// campaign run that needs it.
struct PartitionedDeck {
  partition::Partition partition;
  std::shared_ptr<const partition::PartitionStats> stats;
};

/// Campaign-level memoization of the multilevel partitioner.
///
/// Partitioning dominates a validation campaign's wall time (see
/// docs/PERFORMANCE.md), and the Table 5 / Table 6 / replay sweeps
/// repeat configurations — the same deck partitioned over the same PE
/// count with the same seed. The cache keys on a content fingerprint of
/// the deck (name, grid, material layout, detonator) plus (pes, method,
/// seed), so two decks that merely share a name cannot alias.
///
/// Thread-safe: campaign runs execute on a thread pool, and concurrent
/// requests for the same key block on one shared computation instead of
/// duplicating it. Hit/miss totals are mirrored into the observability
/// registry as `campaign.partition_cache.hits` / `.misses`.
class PartitionCache {
 public:
  /// Return the cached (partition, stats) of the configuration,
  /// computing and inserting it on first use. Never returns null. An
  /// expired `cancel` token makes a miss throw util::CancelledError
  /// before partitioning (the entry is then evicted so a later request
  /// retries); hits are always served — a finished partition costs
  /// nothing to hand out.
  [[nodiscard]] std::shared_ptr<const PartitionedDeck> get(
      const mesh::InputDeck& deck, std::int32_t pes,
      partition::PartitionMethod method, std::uint64_t seed,
      const util::CancellationToken* cancel = nullptr);

  /// Attach a persistent on-disk store (nullptr detaches). Misses then
  /// consult the store before partitioning, and freshly computed
  /// partitions are written back, so a rerun against the same store
  /// directory skips every partition computation.
  void set_store(std::shared_ptr<PartitionStore> store);
  [[nodiscard]] std::shared_ptr<PartitionStore> store() const;

  /// Drop every entry (test isolation; counters are kept).
  void clear();

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Counters counters() const;

  /// The process-wide instance used by campaigns and benches.
  static PartitionCache& global();

 private:
  using Key = std::tuple<std::uint64_t /* deck fingerprint */,
                         std::int32_t /* pes */, std::int32_t /* method */,
                         std::uint64_t /* seed */>;
  using Future = std::shared_future<std::shared_ptr<const PartitionedDeck>>;

  mutable std::mutex mutex_;
  std::map<Key, Future> entries_;
  Counters counters_;
  std::shared_ptr<PartitionStore> store_;
};

}  // namespace krak::core
