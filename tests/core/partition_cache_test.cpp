#include "core/partition_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "mesh/deck.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace krak::core {
namespace {

const mesh::InputDeck& small_deck() {
  static const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kSmall);
  return deck;
}

TEST(PartitionCache, SecondLookupHitsAndSharesTheEntry) {
  PartitionCache cache;
  const auto first = cache.get(small_deck(), 16,
                               partition::PartitionMethod::kMultilevel, 1);
  const auto second = cache.get(small_deck(), 16,
                                partition::PartitionMethod::kMultilevel, 1);
  EXPECT_EQ(first.get(), second.get());  // one shared computation
  EXPECT_EQ(first->partition.parts(), 16);
  EXPECT_EQ(first->stats->parts(), 16);
  const PartitionCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
}

TEST(PartitionCache, KeyDistinguishesPesMethodAndSeed) {
  PartitionCache cache;
  const auto base = cache.get(small_deck(), 16,
                              partition::PartitionMethod::kMultilevel, 1);
  const auto other_pes = cache.get(small_deck(), 32,
                                   partition::PartitionMethod::kMultilevel, 1);
  const auto other_seed = cache.get(small_deck(), 16,
                                    partition::PartitionMethod::kMultilevel, 2);
  const auto other_method =
      cache.get(small_deck(), 16, partition::PartitionMethod::kRcb, 1);
  EXPECT_NE(base.get(), other_pes.get());
  EXPECT_NE(base.get(), other_seed.get());
  EXPECT_NE(base.get(), other_method.get());
  EXPECT_EQ(cache.counters().misses, 4u);
  EXPECT_EQ(cache.counters().hits, 0u);
}

TEST(PartitionCache, DeckContentDefeatsNameAliasing) {
  // Two decks with the same name but different material layouts must
  // not share an entry: the key fingerprints the deck's content.
  const mesh::InputDeck a = mesh::make_uniform_deck(40, 20, mesh::Material::kFoam);
  const mesh::InputDeck b(a.name(), a.grid(),
                          std::vector<mesh::Material>(
                              a.materials().size(), mesh::Material::kHEGas),
                          a.detonator());
  PartitionCache cache;
  const auto entry_a =
      cache.get(a, 8, partition::PartitionMethod::kMultilevel, 1);
  const auto entry_b =
      cache.get(b, 8, partition::PartitionMethod::kMultilevel, 1);
  EXPECT_NE(entry_a.get(), entry_b.get());
  EXPECT_EQ(cache.counters().misses, 2u);
}

TEST(PartitionCache, MatchesDirectPartitioning) {
  PartitionCache cache;
  const auto cached = cache.get(small_deck(), 16,
                                partition::PartitionMethod::kMultilevel, 1);
  const partition::Partition direct = partition::partition_deck(
      small_deck(), 16, partition::PartitionMethod::kMultilevel, 1);
  EXPECT_EQ(cached->partition.assignment(), direct.assignment());
}

TEST(PartitionCache, ClearForcesRecomputation) {
  PartitionCache cache;
  const auto first = cache.get(small_deck(), 16,
                               partition::PartitionMethod::kMultilevel, 1);
  cache.clear();
  const auto second = cache.get(small_deck(), 16,
                                partition::PartitionMethod::kMultilevel, 1);
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(cache.counters().misses, 2u);
  // The evicted entry stays alive while someone holds it.
  EXPECT_EQ(first->partition.assignment(), second->partition.assignment());
}

// Thread-pool stress: many workers requesting the same configuration
// concurrently must converge on one shared computation (and one miss).
// This is the campaign's actual concurrency pattern, and doubles as the
// TSan coverage of the cache's locking.
TEST(PartitionCache, ConcurrentRequestsShareOneComputation) {
  PartitionCache cache;
  constexpr std::size_t kRequests = 64;
  std::vector<std::shared_ptr<const PartitionedDeck>> results(kRequests);
  util::ThreadPool pool(8);
  pool.parallel_for(kRequests, [&](std::size_t i) {
    // Two interleaved keys so hits and misses race on the same table.
    const std::uint64_t seed = 1 + (i % 2);
    results[i] = cache.get(small_deck(), 16,
                           partition::PartitionMethod::kMultilevel, seed);
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i].get(), results[i % 2].get());
  }
  const PartitionCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 2u);
  EXPECT_EQ(counters.hits, kRequests - 2u);
}

TEST(PartitionCache, CancelledMissSurfacesAndEvicts) {
  PartitionCache cache;
  util::CancellationToken token;
  token.cancel("deadline blown");
  EXPECT_THROW((void)cache.get(small_deck(), 16,
                               partition::PartitionMethod::kMultilevel, 1,
                               &token),
               util::CancelledError);
  // The failed entry was evicted, not poisoned: a later request without
  // the token recomputes and succeeds.
  const auto entry = cache.get(small_deck(), 16,
                               partition::PartitionMethod::kMultilevel, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->partition.parts(), 16);
  EXPECT_EQ(cache.counters().misses, 2u);
}

// Failure eviction under concurrency: one owner fails (cancelled token)
// while many waiters are parked on its future. Every waiter must see
// the owner's exception, the entry must be evicted, and a subsequent
// wave must recompute successfully — a failure may cost a retry but can
// never poison the configuration. TSan coverage of the erase/retry race.
TEST(PartitionCache, ConcurrentWaitersSeeOwnerFailureThenRetrySucceeds) {
  PartitionCache cache;
  constexpr std::size_t kRequests = 32;
  util::CancellationToken cancelled;
  cancelled.cancel("scenario budget exceeded");
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> successes{0};
  util::ThreadPool pool(8);
  pool.parallel_for(kRequests, [&](std::size_t i) {
    (void)i;
    try {
      // Every request carries the tripped token, so whichever thread
      // wins ownership fails and the rest inherit that exception (or
      // become owners themselves after the eviction and fail too).
      const auto entry =
          cache.get(small_deck(), 16, partition::PartitionMethod::kMultilevel,
                    7, &cancelled);
      if (entry != nullptr) successes.fetch_add(1);
    } catch (const util::CancelledError&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), kRequests);
  EXPECT_EQ(successes.load(), 0u);

  // The configuration is not poisoned: a clean wave converges on one
  // shared recomputation.
  std::vector<std::shared_ptr<const PartitionedDeck>> results(kRequests);
  pool.parallel_for(kRequests, [&](std::size_t i) {
    results[i] = cache.get(small_deck(), 16,
                           partition::PartitionMethod::kMultilevel, 7);
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i].get(), results[0].get());
  }
}

}  // namespace
}  // namespace krak::core
