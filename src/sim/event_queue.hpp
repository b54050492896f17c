#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace krak::sim {

/// What a scheduled simulator event does when it fires. Events carry
/// indices into per-rank state instead of captured lambdas, so
/// scheduling one writes a small POD into one of the queue's arrays — no
/// type erasure, no virtual dispatch (docs/PERFORMANCE.md).
enum class EventKind : std::uint8_t {
  /// Resume executing ops of `rank` (initial kick-off and generic wake).
  kStepRank,
  /// A point-to-point payload from `peer` with `tag` arrives at `rank`
  /// at the event's timestamp.
  kMessageArrival,
};

/// One tagged simulator event (the payload of a queue entry). 16 bytes;
/// the meaning of each field depends on `kind` (see EventKind). An event
/// carries no time of its own: a payload's arrival time is the fire time
/// of its kMessageArrival event, which the handler reads as the queue's
/// now().
struct SimEvent {
  EventKind kind = EventKind::kStepRank;
  std::int32_t rank = -1;  ///< target rank
  std::int32_t peer = -1;  ///< sending rank (kMessageArrival)
  std::int32_t tag = 0;    ///< message tag (kMessageArrival)

  [[nodiscard]] static SimEvent step(std::int32_t rank) {
    SimEvent event;
    event.kind = EventKind::kStepRank;
    event.rank = rank;
    return event;
  }
  [[nodiscard]] static SimEvent arrival(std::int32_t rank, std::int32_t peer,
                                        std::int32_t tag) {
    SimEvent event;
    event.kind = EventKind::kMessageArrival;
    event.rank = rank;
    event.peer = peer;
    event.tag = tag;
    return event;
  }
};

/// Outcome of one EventQueue::run drain.
struct EventRunStats {
  /// Events fired before the queue emptied or the budget tripped.
  std::size_t fired = 0;
  /// True when `max_events` fired with events still pending (runaway
  /// guard). The simulator reports it as a SimFailure; the queue itself
  /// never throws on the budget.
  bool budget_exhausted = false;
};

/// Time-ordered event queue for the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion order (a monotone
/// sequence number breaks ties), which keeps simulations deterministic:
/// the (time, seq) comparator is a strict total order, so the pop
/// sequence is independent of how the queue stores its entries.
///
/// The queue is a ladder (Tang, Goh & Thng, ACM TOMACS 15(3), 2005) of
/// three tiers of 24-byte POD entries (docs/PERFORMANCE.md, "The event
/// engine"):
///  - the **bottom**, a 4-ary implicit heap holding only the current
///    time bucket — a few dozen entries, so every pop stays in cache;
///  - the **rung**, time buckets of equal width held in one contiguous
///    array, built when the bottom empties by counting-sorting the top
///    tier in place;
///  - the **top**, an unsorted array of the events later than the
///    rung's largest time.
/// One monotone function maps a time to its bucket, so every event in
/// an earlier tier is strictly earlier than every event in a later one,
/// and the bottom heap's (time, seq) order is the whole queue's.
class EventQueue {
 public:
  /// Schedule `event` at absolute time `time` (seconds); throws
  /// InvalidArgument when `time` precedes the current time or is NaN.
  /// The only way to add an event, so now() never decreases.
  void schedule(double time, SimEvent event);

  /// Current simulation time: the timestamp of the most recently fired
  /// event (0 before any event fires).
  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event; +infinity when empty.
  /// The parallel engine's epoch coordinator uses this to pick the next
  /// global time window without popping anything. Not const: it may
  /// load the next bucket into the bottom tier, which moves no event
  /// out of order.
  [[nodiscard]] double next_time() {
    if (size_ == 0) return std::numeric_limits<double>::infinity();
    settle();
    return bottom_.front().time;
  }

  /// High-water mark of pending events since construction — a proxy for
  /// how much simulated concurrency was in flight (reported per replay
  /// as `max_queue_depth`).
  [[nodiscard]] std::size_t max_size() const { return max_size_; }

  /// Fire events in time order until none remain or `max_events` have
  /// fired, dispatching each to `handler(const SimEvent&)`. The handler
  /// may schedule more events. Never throws on the budget: when it is
  /// exhausted the remaining events stay queued and the stats say so.
  template <typename Handler>
  EventRunStats run(Handler&& handler,
                    std::size_t max_events = kDefaultMaxEvents) {
    return run_window(std::numeric_limits<double>::infinity(),
                      /*inclusive=*/true, max_events,
                      std::forward<Handler>(handler));
  }

  /// Fire events whose timestamp is strictly below `limit` (at or below
  /// when `inclusive`), in time order, stopping early once `max_events`
  /// have fired. Events at or past the horizon stay queued — this is the
  /// conservative-parallel epoch primitive: a shard may safely execute
  /// everything below the global lookahead horizon because no other
  /// shard can send it an event earlier than it.
  template <typename Handler>
  EventRunStats run_window(double limit, bool inclusive,
                           std::size_t max_events, Handler&& handler) {
    EventRunStats stats;
    while (size_ != 0) {
      settle();
      const double time = bottom_.front().time;
      if (inclusive ? time > limit : time >= limit) break;
      if (stats.fired >= max_events) {
        stats.budget_exhausted = true;
        break;
      }
      const Entry top = pop_min();
      now_ = top.time;
      handler(top.to_event());
      ++stats.fired;
    }
    return stats;
  }

  /// Default runaway guard of Simulator runs (SimConfig::max_events).
  static constexpr std::size_t kDefaultMaxEvents = 1'000'000'000;

 private:
  /// Children per bottom-heap node (a node's children are contiguous).
  static constexpr std::size_t kArity = 4;
  /// Events per rung bucket the build aims for: the bottom heap's
  /// working set. A constant, not a setting: on BM_EventQueueBurst 256
  /// measures about the same and 16 about 10% slower.
  static constexpr std::size_t kBucketEvents = 48;
  /// End of a bucket's side-store chain.
  static constexpr std::uint32_t kNoLink = 0xffffffffu;

  /// 24-byte flattened (time, seq, event) record: a replay's pending
  /// messages are mostly queue entries, so every byte here counts once
  /// per message in flight. The event kind rides in the sequence word's
  /// low 2 bits: the shift preserves insertion order exactly, so
  /// comparing `seq_kind` compares `seq`.
  struct Entry {
    double time;
    std::uint32_t seq_kind;
    std::int32_t rank;
    std::int32_t peer;
    std::int32_t tag;

    /// Strict total order: earlier time first, insertion order on ties.
    [[nodiscard]] bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      return seq_kind < other.seq_kind;
    }

    [[nodiscard]] SimEvent to_event() const {
      SimEvent event;
      event.kind = static_cast<EventKind>(seq_kind & 3u);
      event.rank = rank;
      event.peer = peer;
      event.tag = tag;
      return event;
    }
  };
  static_assert(sizeof(Entry) == 24, "queue entries must stay 24 bytes");

  /// Make the bottom tier non-empty; the queue must not be empty.
  void settle() {
    if (bottom_.empty()) load_next_bucket();
  }
  void load_next_bucket();
  void build_rung();
  void sift_down(std::size_t parent);
  /// The rung bucket of `time`, for rung_start_ <= time <= rung_max_:
  /// monotone in time and clamped to the last bucket.
  [[nodiscard]] std::size_t bucket_of(double time) const {
    const double offset = (time - rung_start_) * rung_scale_;
    const std::size_t last = bucket_end_.size() - 1;
    return offset < static_cast<double>(last) ? static_cast<std::size_t>(offset)
                                              : last;
  }
  Entry pop_min();

  /// The current bucket (and any event earlier than the rung's start).
  std::vector<Entry> bottom_;
  /// Bucketed events: bucket b is rung_[bucket_end_[b-1], bucket_end_[b])
  /// (from 0 for b = 0). Buckets below `loaded_` have moved to the bottom.
  std::vector<Entry> rung_;
  std::vector<std::uint32_t> bucket_end_;
  std::size_t loaded_ = 0;
  double rung_start_ = 0.0;
  double rung_max_ = -std::numeric_limits<double>::infinity();
  double rung_scale_ = 0.0;
  /// Events pushed into a bucket after the rung was built, chained per
  /// bucket (side_head_[b] -> side_next_[i] -> ... -> kNoLink).
  std::vector<Entry> side_;
  std::vector<std::uint32_t> side_next_;
  std::vector<std::uint32_t> side_head_;
  /// Events later than rung_max_, unsorted, with their time bounds.
  std::vector<Entry> top_;
  double top_min_ = std::numeric_limits<double>::infinity();
  double top_max_ = -std::numeric_limits<double>::infinity();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace krak::sim
