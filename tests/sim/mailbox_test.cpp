// Mailbox behavior, including the slot-reuse bounds: a push for a peer
// with no slot takes the first drained slot before it appends one, so a
// workload that churns through ever-new peers holds only its peak of
// simultaneously live peers, never one slot per peer it ever heard from.

#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace krak::sim {
namespace {

TEST(Mailbox, PushPopFifoPerKey) {
  MailboxPool pool;
  Mailbox mailbox;
  mailbox.push(pool, 1, 7, 0.5);
  mailbox.push(pool, 1, 7, 1.5);
  mailbox.push(pool, 2, 7, 0.25);
  double arrival = 0.0;
  ASSERT_TRUE(mailbox.try_pop(pool, 1, 7, &arrival));
  EXPECT_DOUBLE_EQ(arrival, 0.5);
  ASSERT_TRUE(mailbox.try_pop(pool, 1, 7, &arrival));
  EXPECT_DOUBLE_EQ(arrival, 1.5);
  EXPECT_FALSE(mailbox.try_pop(pool, 1, 7, &arrival));
  ASSERT_TRUE(mailbox.try_pop(pool, 2, 7, &arrival));
  EXPECT_DOUBLE_EQ(arrival, 0.25);
}

TEST(Mailbox, PopOnEmptyAndUnknownKeysFails) {
  MailboxPool pool;
  Mailbox mailbox;
  double arrival = 0.0;
  EXPECT_FALSE(mailbox.try_pop(pool, 0, 0, &arrival));  // before any push
  mailbox.push(pool, 3, 3, 1.0);
  EXPECT_FALSE(mailbox.try_pop(pool, 3, 4, &arrival));  // different tag
  EXPECT_FALSE(mailbox.try_pop(pool, 4, 3, &arrival));  // different peer
}

// Pure churn: every peer is drained before the next appears, over far
// more distinct peers than any rank has. Each push finds the one drained
// slot and takes it over, so the list stays one slot long and every push
// and pop inspects exactly one slot.
TEST(Mailbox, ChurnedKeysDoNotGrowTableOrDegradeProbes) {
  MailboxPool pool;
  Mailbox mailbox;
  const std::int32_t keys = 100000;
  double arrival = 0.0;
  for (std::int32_t i = 0; i < keys; ++i) {
    const RankId peer = i;  // a never-repeating (peer, tag) stream
    mailbox.push(pool, peer, /*tag=*/17, static_cast<double>(i));
    ASSERT_TRUE(mailbox.try_pop(pool, peer, 17, &arrival));
    EXPECT_DOUBLE_EQ(arrival, static_cast<double>(i));
  }
  EXPECT_EQ(mailbox.slots(), 1u);
  EXPECT_EQ(mailbox.live_slots(), 0u);
  // push + successful pop inspect at least one slot each; a list that
  // kept a slot per drained peer would scan ever longer.
  const double operations = 2.0 * static_cast<double>(keys);
  const double mean_probes = static_cast<double>(mailbox.probes()) / operations;
  EXPECT_GE(mean_probes, 1.0);
  EXPECT_LT(mean_probes, 2.0);
}

// Mixed steady-state + churn: a fixed working set that stays live across
// the whole run (the Krak exchange pattern) plus a churning stream of
// one-shot peers. The churn shares one slot after the working set's, so
// the list holds the working set plus one, not the churn volume.
TEST(Mailbox, LiveWorkingSetSurvivesChurnGrows) {
  MailboxPool pool;
  Mailbox mailbox;
  const std::int32_t working_set = 24;
  for (std::int32_t k = 0; k < working_set; ++k) {
    mailbox.push(pool, /*peer=*/1000 + k, /*tag=*/1, static_cast<double>(k));
  }
  double arrival = 0.0;
  for (std::int32_t i = 0; i < 20000; ++i) {
    mailbox.push(pool, /*peer=*/i, /*tag=*/2, 0.5);
    ASSERT_TRUE(mailbox.try_pop(pool, i, 2, &arrival));
  }
  // The churn took over drained slots only; the pending working set kept
  // its slots, in FIFO order.
  EXPECT_EQ(mailbox.live_slots(), static_cast<std::size_t>(working_set));
  EXPECT_LE(mailbox.slots(), static_cast<std::size_t>(working_set) + 1);
  for (std::int32_t k = 0; k < working_set; ++k) {
    ASSERT_TRUE(mailbox.try_pop(pool, 1000 + k, 1, &arrival));
    EXPECT_DOUBLE_EQ(arrival, static_cast<double>(k));
  }
}

// The list appends a slot for every genuinely live peer.
TEST(Mailbox, GrowsForGenuinelyLiveKeys) {
  MailboxPool pool;
  Mailbox mailbox;
  const std::int32_t keys = 1000;
  for (std::int32_t i = 0; i < keys; ++i) {
    mailbox.push(pool, i, /*tag=*/5, static_cast<double>(i) + 0.25);
  }
  EXPECT_EQ(mailbox.live_slots(), static_cast<std::size_t>(keys));
  EXPECT_EQ(mailbox.slots(), static_cast<std::size_t>(keys));
  double arrival = 0.0;
  for (std::int32_t i = 0; i < keys; ++i) {
    ASSERT_TRUE(mailbox.try_pop(pool, i, 5, &arrival));
    EXPECT_DOUBLE_EQ(arrival, static_cast<double>(i) + 0.25);
  }
}

// Differential test of one shard's pool shared by several ranks'
// mailboxes, as in the simulator: random pushes and pops against a map of
// FIFOs. Every pop must return the oldest pending arrival of its (rank,
// peer, tag), and a record is carved only when no given-back one is free,
// so after every step the pool's high-water equals the reference's peak
// live count. The push share swings between phases, so the live count
// falls and climbs again over records given back earlier.
TEST(Mailbox, SharedPoolMatchesReferenceFifos) {
  constexpr std::int32_t kRanks = 6;
  constexpr std::int32_t kPeers = 5;
  constexpr std::int32_t kTags = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    MailboxPool pool;
    std::vector<Mailbox> mailboxes(kRanks);
    std::map<std::tuple<std::int32_t, RankId, std::int32_t>, std::deque<double>>
        reference;
    std::size_t live = 0;
    std::size_t peak = 0;
    for (std::int32_t step = 0; step < 20000; ++step) {
      const auto rank = static_cast<std::int32_t>(rng.next_below(kRanks));
      const auto peer = static_cast<RankId>(rng.next_below(kPeers));
      const auto tag = static_cast<std::int32_t>(rng.next_below(kTags));
      Mailbox& mailbox = mailboxes[static_cast<std::size_t>(rank)];
      std::deque<double>& fifo = reference[{rank, peer, tag}];
      const double push_share = (step / 2500) % 2 == 0 ? 0.7 : 0.3;
      if (rng.next_double() < push_share) {
        const double arrival = static_cast<double>(step);
        mailbox.push(pool, peer, tag, arrival);
        fifo.push_back(arrival);
        peak = std::max(peak, ++live);
      } else {
        double arrival = -1.0;
        const bool popped = mailbox.try_pop(pool, peer, tag, &arrival);
        ASSERT_EQ(popped, !fifo.empty()) << "step " << step;
        if (popped) {
          EXPECT_EQ(arrival, fifo.front()) << "step " << step;
          fifo.pop_front();
          --live;
        }
      }
      ASSERT_EQ(pool.high_water(), peak) << "step " << step;
    }
    // Drain: every pending arrival comes back in FIFO order per key.
    for (auto& [key, fifo] : reference) {
      const auto& [rank, peer, tag] = key;
      Mailbox& mailbox = mailboxes[static_cast<std::size_t>(rank)];
      double arrival = -1.0;
      for (const double expected : fifo) {
        ASSERT_TRUE(mailbox.try_pop(pool, peer, tag, &arrival));
        EXPECT_EQ(arrival, expected);
      }
      EXPECT_FALSE(mailbox.try_pop(pool, peer, tag, &arrival));
    }
    EXPECT_GT(peak, 100u);
    EXPECT_EQ(pool.high_water(), peak);
  }
}

}  // namespace
}  // namespace krak::sim
