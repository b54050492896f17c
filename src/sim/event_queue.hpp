#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>
#include <vector>

namespace krak::sim {

/// What a scheduled simulator event does when it fires. Events carry
/// indices into per-rank state instead of captured lambdas, so
/// scheduling one writes a small POD into the queue's slab — no heap
/// allocation, no type erasure, no virtual dispatch (docs/PERFORMANCE.md).
enum class EventKind : std::uint8_t {
  /// Resume executing ops of `rank` (initial kick-off and generic wake).
  kStepRank,
  /// A point-to-point payload from `peer` with `tag` arrives at `rank`
  /// at the event's timestamp.
  kMessageArrival,
  /// A collective completes: release `rank` at the event's timestamp;
  /// `value` is the tree cost every rank pays.
  kCollectiveRelease,
};

/// One tagged simulator event (the payload of a queue entry). 24 bytes;
/// the meaning of each field depends on `kind` (see EventKind).
struct SimEvent {
  EventKind kind = EventKind::kStepRank;
  std::int32_t rank = -1;  ///< target rank
  std::int32_t peer = -1;  ///< sending rank (kMessageArrival)
  std::int32_t tag = 0;    ///< message tag (kMessageArrival)
  /// kCollectiveRelease: the tree cost every rank pays.
  /// kMessageArrival: the payload's true arrival timestamp, always
  /// equal to the event's fire time (the receiving rank's timing math
  /// uses this value, keeping it independent of queue mechanics).
  double value = 0.0;

  [[nodiscard]] static SimEvent step(std::int32_t rank) {
    SimEvent event;
    event.kind = EventKind::kStepRank;
    event.rank = rank;
    return event;
  }
  [[nodiscard]] static SimEvent arrival(std::int32_t rank, std::int32_t peer,
                                        std::int32_t tag,
                                        double arrival_time) {
    SimEvent event;
    event.kind = EventKind::kMessageArrival;
    event.rank = rank;
    event.peer = peer;
    event.tag = tag;
    event.value = arrival_time;
    return event;
  }
  [[nodiscard]] static SimEvent release(std::int32_t rank, double cost) {
    SimEvent event;
    event.kind = EventKind::kCollectiveRelease;
    event.rank = rank;
    event.value = cost;
    return event;
  }
};

/// Outcome of one EventQueue::run drain.
struct EventRunStats {
  /// Events fired before the queue emptied or the budget tripped.
  std::size_t fired = 0;
  /// True when `max_events` fired with events still pending (runaway
  /// guard). The caller decides whether that is a throw or a structured
  /// failure; the queue itself never throws on the budget.
  bool budget_exhausted = false;
};

/// Time-ordered event queue for the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion order (a monotone
/// sequence number breaks ties), which keeps simulations deterministic:
/// the (time, seq) comparator is a strict total order, so the pop
/// sequence is independent of the heap's internal layout. Entries are
/// 32-byte PODs in a single contiguous slab (a 4-ary implicit heap over
/// a reserved vector — half the sift depth of a binary heap, and a
/// node's children share cache lines): scheduling is a bounds check plus
/// a sift-up, and the slab's capacity is reused across the whole run.
/// The number of events scheduled without growing the slab is exported
/// to the observability layer as `sim.events.pooled`.
class EventQueue {
 public:
  /// Pre-size the slab so a run of `expected_events` pending events
  /// never reallocates.
  void reserve(std::size_t expected_events) { heap_.reserve(expected_events); }

  /// Schedule `event` at absolute time `time` (seconds); `time` must
  /// not precede the current time.
  void schedule(double time, SimEvent event);

  /// Schedule `event` at absolute time `time` even when `time` precedes
  /// the current time. Reserved for the parallel engine's epoch
  /// coordinator: a collective completing near the window's start must
  /// release ranks in shards whose queues already fired events later in
  /// the window, so the release step legitimately lands below now().
  /// Popping such an entry regresses now() to its time; from there the
  /// heap keeps firing in nondecreasing time order, so every event
  /// scheduled by subsequent handlers still satisfies schedule()'s
  /// monotonicity contract.
  void inject(double time, SimEvent event);

  /// Current simulation time: the timestamp of the most recently fired
  /// event (0 before any event fires).
  [[nodiscard]] double now() const { return now_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event; +infinity when empty.
  /// The parallel engine's epoch coordinator uses this to pick the next
  /// global time window without popping anything.
  [[nodiscard]] double next_time() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().time;
  }

  /// High-water mark of pending events since construction — a proxy for
  /// how much simulated concurrency was in flight (reported per replay
  /// as `max_queue_depth`).
  [[nodiscard]] std::size_t max_size() const { return max_size_; }

  /// Events scheduled into already-allocated slab capacity (all but the
  /// ones that forced the slab to grow).
  [[nodiscard]] std::uint64_t pooled_events() const { return pooled_; }

  /// Fire events in time order until none remain or `max_events` have
  /// fired, dispatching each to `handler(const SimEvent&)`. The handler
  /// may schedule more events. Never throws on the budget: when it is
  /// exhausted the remaining events stay queued and the stats say so.
  template <typename Handler>
  EventRunStats run(Handler&& handler,
                    std::size_t max_events = kDefaultMaxEvents) {
    EventRunStats stats;
    while (!heap_.empty()) {
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

  /// Fire events whose timestamp is strictly below `limit` (at or below
  /// when `inclusive`), in time order, stopping early once `max_events`
  /// have fired. Events at or past the horizon stay queued — this is the
  /// conservative-parallel epoch primitive: a shard may safely execute
  /// everything below the global lookahead horizon because no other
  /// shard can inject an event earlier than it.
  template <typename Handler>
  EventRunStats run_window(double limit, bool inclusive,
                           std::size_t max_events, Handler&& handler) {
    EventRunStats stats;
    while (!heap_.empty()) {
      const double time = heap_.front().time;
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
  /// Children per heap node (a node's children are contiguous).
  static constexpr std::size_t kArity = 4;

  /// 32-byte flattened (time, seq, event) record. The event kind rides
  /// in the sequence word's low 2 bits: the shift preserves insertion
  /// order exactly, so comparing `seq_kind` compares `seq` — and the
  /// slab stays a clean two entries per cache line, which matters when
  /// the 100k-rank replays push the heap past a million entries.
  struct Entry {
    double time;
    double value;
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
      event.value = value;
      return event;
    }
  };
  static_assert(sizeof(Entry) == 32, "heap entries must stay 32 bytes");

  Entry pop_min();
  void push_entry(double time, SimEvent event);

  std::vector<Entry> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t max_size_ = 0;
  std::uint64_t pooled_ = 0;
};

}  // namespace krak::sim
