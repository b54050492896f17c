#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace krak::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<std::int32_t> order;
  queue.schedule(3.0, SimEvent::step(3));
  queue.schedule(1.0, SimEvent::step(1));
  queue.schedule(2.0, SimEvent::step(2));
  const EventRunStats stats =
      queue.run([&order](const SimEvent& e) { order.push_back(e.rank); });
  EXPECT_EQ(stats.fired, 3u);
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_EQ(order, (std::vector<std::int32_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<std::int32_t> order;
  for (std::int32_t i = 0; i < 10; ++i) {
    queue.schedule(5.0, SimEvent::step(i));
  }
  queue.run([&order](const SimEvent& e) { order.push_back(e.rank); });
  for (std::int32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, ManyEqualAndInterleavedTimesStaysStable) {
  // A heavier tie-breaking exercise: several timestamp groups scheduled
  // out of order, each expected to fire in insertion order.
  EventQueue queue;
  std::vector<std::int32_t> order;
  std::int32_t id = 0;
  for (std::int32_t round = 0; round < 20; ++round) {
    for (double time : {7.0, 3.0, 5.0}) {
      queue.schedule(time, SimEvent::step(id++));
    }
  }
  queue.run([&order](const SimEvent& e) { order.push_back(e.rank); });
  ASSERT_EQ(order.size(), 60u);
  // Within each time group, ids must be increasing.
  std::vector<std::int32_t> last_by_group(3, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t group = i / 20;  // 3..., then 5..., then 7...
    EXPECT_GT(order[i], last_by_group[group]);
    last_by_group[group] = order[i];
  }
}

TEST(EventQueue, NowTracksFiringTime) {
  EventQueue queue;
  double seen = -1.0;
  queue.schedule(2.5, SimEvent::step(0));
  queue.run([&queue, &seen](const SimEvent&) { seen = queue.now(); });
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(queue.now(), 2.5);
}

TEST(EventQueue, HandlersCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, SimEvent::step(0));
  const EventRunStats stats = queue.run([&queue, &fired](const SimEvent& e) {
    ++fired;
    if (e.rank < 2) {
      queue.schedule(queue.now() + 1.0, SimEvent::step(e.rank + 1));
    }
  });
  EXPECT_EQ(stats.fired, 3u);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue queue;
  queue.schedule(5.0, SimEvent::step(0));
  queue.run([&queue](const SimEvent&) {
    EXPECT_THROW(queue.schedule(4.0, SimEvent::step(1)),
                 util::InvalidArgument);
  });
  // A NaN time has no place in the order; the same check refuses it.
  EXPECT_THROW(queue.schedule(std::nan(""), SimEvent::step(2)),
               util::InvalidArgument);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SchedulingAtCurrentTimeAllowed) {
  EventQueue queue;
  bool fired = false;
  queue.schedule(5.0, SimEvent::step(0));
  queue.run([&queue, &fired](const SimEvent& e) {
    if (e.rank == 0) {
      queue.schedule(5.0, SimEvent::step(1));
    } else {
      fired = true;
    }
  });
  EXPECT_TRUE(fired);
}

TEST(EventQueue, BudgetExhaustionReportedNotThrown) {
  EventQueue queue;
  // A self-perpetuating event chain must trip the max_events budget.
  queue.schedule(0.0, SimEvent::step(0));
  const EventRunStats stats = queue.run(
      [&queue](const SimEvent&) {
        queue.schedule(queue.now() + 1.0, SimEvent::step(0));
      },
      /*max_events=*/100);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.fired, 100u);
  EXPECT_FALSE(queue.empty());  // the runaway chain is still pending
}

TEST(EventQueue, EmptyRunReturnsZero) {
  EventQueue queue;
  const EventRunStats stats = queue.run([](const SimEvent&) {});
  EXPECT_EQ(stats.fired, 0u);
  EXPECT_FALSE(stats.budget_exhausted);
  EXPECT_TRUE(queue.empty());
}

// An arrival carries no time of its own: the handler reads it as now().
TEST(EventQueue, PayloadRoundTrips) {
  EventQueue queue;
  queue.schedule(1.25, SimEvent::arrival(/*rank=*/3, /*peer=*/7, /*tag=*/42));
  queue.schedule(2.0, SimEvent::step(/*rank=*/5));
  std::vector<SimEvent> seen;
  std::vector<double> times;
  queue.run([&](const SimEvent& e) {
    seen.push_back(e);
    times.push_back(queue.now());
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, EventKind::kMessageArrival);
  EXPECT_EQ(seen[0].rank, 3);
  EXPECT_EQ(seen[0].peer, 7);
  EXPECT_EQ(seen[0].tag, 42);
  EXPECT_EQ(times[0], 1.25);
  EXPECT_EQ(seen[1].kind, EventKind::kStepRank);
  EXPECT_EQ(seen[1].rank, 5);
}

// Differential tests: the ladder's pop order against a reference order.

/// One fired event as the differential tests compare it.
struct Fired {
  double time = 0.0;
  std::int32_t id = 0;
  bool operator==(const Fired&) const = default;
};

/// Orders by time alone: std::stable_sort with it keeps equal times in
/// scheduling order, which is the (time, seq) order the queue promises.
bool earlier(const Fired& a, const Fired& b) { return a.time < b.time; }

/// A delay drawn from the shapes a replay produces: equal-time runs,
/// near arrivals, arrivals a built rung's later buckets take, and (with
/// `outliers`) rare far-future ones, which stretch a rung's span so that
/// most of its events share the first bucket.
double draw_delay(util::Rng& rng, bool outliers) {
  const std::uint64_t shape = rng.next_below(16);
  if (shape < 4) return 0.0;
  if (shape < 10) return rng.next_double(0.0, 1.0);
  if (shape < 15 || !outliers) return rng.next_double(1.0, 64.0);
  return rng.next_double(1e6, 1e9);
}

TEST(EventQueue, MonotoneScheduleFiresAsStableSortOfTheLog) {
  // Every event is scheduled at or after now(), so the whole fired
  // sequence must equal the schedule log stable-sorted by time. Handlers
  // schedule into the rung being drained; runs stop on a budget
  // mid-bucket and resume; windows stop at inclusive and exclusive
  // horizons.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const bool outliers = seed % 2 == 1;
    EventQueue queue;
    std::vector<Fired> log;
    std::vector<Fired> fired;
    std::size_t max_pending = 0;
    const auto schedule = [&](double time) {
      const auto id = static_cast<std::int32_t>(log.size());
      queue.schedule(time, SimEvent::step(id));
      log.push_back({time, id});
      max_pending = std::max(max_pending, log.size() - fired.size());
    };
    const auto handler = [&](const SimEvent& event) {
      fired.push_back({queue.now(), event.rank});
      if (log.size() >= 6000) return;
      for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
        schedule(queue.now() + draw_delay(rng, outliers));
      }
    };
    // Kick-off: one equal-time run, then a spread burst.
    for (int i = 0; i < 300; ++i) schedule(0.0);
    for (int i = 0; i < 1500; ++i) schedule(draw_delay(rng, outliers));
    while (!queue.empty()) {
      if (rng.next_below(3) == 0) {
        const std::size_t budget = 1 + rng.next_below(97);
        const std::size_t before = fired.size();
        const EventRunStats stats = queue.run(handler, budget);
        EXPECT_EQ(stats.fired, fired.size() - before);
        EXPECT_EQ(stats.budget_exhausted, !queue.empty());
      } else {
        const double start = queue.next_time();
        const bool inclusive = rng.next_below(2) == 0;
        const double limit = rng.next_below(4) == 0
                                 ? start
                                 : start + draw_delay(rng, outliers);
        queue.run_window(limit, inclusive, EventQueue::kDefaultMaxEvents,
                         handler);
        if (!queue.empty()) {
          const double next = queue.next_time();
          EXPECT_TRUE(inclusive ? next > limit : next >= limit);
        }
      }
      for (std::uint64_t k = rng.next_below(40); k > 0 && log.size() < 6000;
           --k) {
        schedule(queue.now() + draw_delay(rng, outliers));
      }
    }
    std::vector<Fired> expected = log;
    std::stable_sort(expected.begin(), expected.end(), earlier);
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_TRUE(fired == expected);
    EXPECT_EQ(queue.max_size(), max_pending);
  }
}

/// The reference queue: the pending log kept as std::stable_sort by time
/// would order it. An insert goes after every pending event at the same
/// or an earlier time, so equal times keep their scheduling order, and a
/// pop takes the front.
class ReferenceQueue {
 public:
  void push(double time, std::int32_t id) {
    const Fired event{time, id};
    pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), event,
                                     earlier),
                    event);
    max_size_ = std::max(max_size_, pending_.size());
  }
  Fired pop() {
    const Fired front = pending_.front();
    pending_.pop_front();
    return front;
  }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] double front_time() const { return pending_.front().time; }
  [[nodiscard]] std::size_t max_size() const { return max_size_; }

 private:
  std::deque<Fired> pending_;
  std::size_t max_size_ = 0;
};

TEST(EventQueue, EpochLoopWithInjectsMatchesReferenceOrder) {
  // The parallel engine's pattern: a window up to a horizon (inclusive
  // when the lookahead is zero), then a barrier's release steps and
  // arrivals, none below max(horizon, now()), some runs cut short by the
  // event budget and resumed in the next epoch.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const bool outliers = seed % 3 == 0;
    EventQueue queue;
    ReferenceQueue reference;
    std::int32_t next_id = 0;
    std::size_t mismatches = 0;
    const auto add = [&](double time) {
      queue.schedule(time, SimEvent::step(next_id));
      reference.push(time, next_id++);
    };
    const auto handler = [&](const SimEvent& event) {
      const Fired expected = reference.pop();
      if (!(Fired{queue.now(), event.rank} == expected)) ++mismatches;
      if (next_id >= 8000) return;
      for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
        add(queue.now() + draw_delay(rng, outliers));
      }
    };
    for (int i = 0; i < 500; ++i) add(0.0);
    const double lookahead = seed % 2 == 0 ? 0.0 : 0.5;
    while (!reference.empty()) {
      const double start = queue.next_time();
      ASSERT_EQ(start, reference.front_time());
      const bool degenerate = lookahead <= 0.0;
      const double horizon = start + lookahead;
      const std::size_t budget =
          rng.next_below(5) == 0 ? 1 + rng.next_below(60)
                                 : EventQueue::kDefaultMaxEvents;
      const EventRunStats stats =
          queue.run_window(horizon, degenerate, budget, handler);
      const bool reference_left =
          !reference.empty() && (degenerate ? reference.front_time() <= horizon
                                            : reference.front_time() < horizon);
      EXPECT_EQ(stats.budget_exhausted, reference_left);
      // Barrier: a burst of release steps at one completion, then
      // arrivals, all at or past both the horizon and now().
      const double earliest = std::max(horizon, queue.now());
      if (next_id < 8000 && rng.next_below(3) == 0) {
        const double completion = earliest + draw_delay(rng, outliers);
        for (std::uint64_t k = 1 + rng.next_below(200); k > 0; --k) {
          add(completion);
        }
      }
      for (std::uint64_t k = rng.next_below(30); k > 0 && next_id < 8000;
           --k) {
        add(earliest + draw_delay(rng, outliers));
      }
      ASSERT_EQ(queue.size(), reference.size());
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.max_size(), reference.max_size());
  }
}

}  // namespace
}  // namespace krak::sim
