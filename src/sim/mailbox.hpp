#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/ops.hpp"
#include "util/error.hpp"

namespace krak::sim {

/// The in-flight message records of one simulator shard: the pending
/// (arrival, tag) pairs of every mailbox of the shard's ranks, chained
/// per (receiver, sender) by index. A record is taken when an arrival
/// event fires on the receiver's shard and given back by the matching
/// receive, so only the shard's own worker ever touches its pool and no
/// lock is needed.
///
/// One pool per shard, not one per rank: ranks peak at different times,
/// so the shard holds its simultaneous peak instead of the sum of every
/// rank's own peak, with no per-rank growth slack (docs/PERFORMANCE.md,
/// "The 100k-rank regime"). The records live in fixed-size blocks that
/// never move, so growing the pool copies nothing, and given-back
/// records are reused through a free list before a new one is carved.
class MailboxPool {
 public:
  /// Records carved so far. Given-back records are reused first, so
  /// this is the peak number of simultaneously pending messages.
  [[nodiscard]] std::size_t high_water() const { return carved_; }

 private:
  friend class Mailbox;

  struct Record {
    double arrival;
    std::int32_t tag;
    std::int32_t next;  ///< next record of the chain; -1 ends it
  };
  static_assert(sizeof(Record) == 16, "mailbox records must stay 16 bytes");
  static constexpr std::size_t kBlockShift = 10;
  /// Records per block: 16 KiB, so a small simulation's pool is one
  /// block and the replays' blocks stay below glibc's mmap threshold.
  static constexpr std::size_t kBlockRecords = std::size_t{1} << kBlockShift;

  [[nodiscard]] Record& operator[](std::int32_t index) {
    const auto i = static_cast<std::size_t>(index);
    return blocks_[i >> kBlockShift][i & (kBlockRecords - 1)];
  }

  /// A record holding (tag, arrival) that ends a chain.
  [[nodiscard]] std::int32_t take(std::int32_t tag, double arrival) {
    std::int32_t index = free_head_;
    if (index != -1) {
      free_head_ = (*this)[index].next;
    } else {
      KRAK_REQUIRE(carved_ < static_cast<std::size_t>(
                                 std::numeric_limits<std::int32_t>::max()),
                   "mailbox record indices exhausted");
      if (carved_ == blocks_.size() * kBlockRecords) {
        blocks_.push_back(
            std::make_unique_for_overwrite<Record[]>(kBlockRecords));
      }
      index = static_cast<std::int32_t>(carved_++);
    }
    (*this)[index] = Record{arrival, tag, -1};
    return index;
  }

  void give_back(std::int32_t index) {
    (*this)[index].next = free_head_;
    free_head_ = index;
  }

  std::vector<std::unique_ptr<Record[]>> blocks_;
  std::size_t carved_ = 0;
  std::int32_t free_head_ = -1;
};

/// Per-rank in-flight message store of the discrete-event simulator.
///
/// Conceptually a map from (sending rank, tag) to a FIFO of arrival
/// times. The representation is an open-addressing hash table (linear
/// probing, power-of-two capacity) keyed by the *sending rank only*,
/// whose slots head index-linked FIFO chains of (tag, arrival) records
/// in the shard's MailboxPool — no per-message heap allocation and no
/// tree walk per delivery. Every call names the pool of the rank's
/// shard. A pop for (peer, tag) takes the first tag match in the peer's
/// chain; records are appended in event-fire order, so that match is
/// exactly the oldest pending arrival of the pair and the per-(peer,
/// tag) FIFO contract holds unchanged.
///
/// Keying by peer instead of (peer, tag) is a working-set decision: a
/// Krak rank exchanges with a handful of neighbors but uses a distinct
/// tag per (phase, step, message), so pair keying filled ~256-slot
/// tables (~4 KB per rank — hundreds of MB across a 100k-rank machine,
/// the dominant cache load of the big replays) where peer keying needs
/// the minimum 16 slots (256 B per rank) and a chain scan bounded by
/// the messages actually in flight from that neighbor
/// (docs/PERFORMANCE.md, "The 100k-rank regime").
///
/// Slots are never erased between grows: a drained chain keeps its key
/// so the steady-state of the Krak exchange pattern (the same neighbors
/// every iteration) probes straight to an existing slot. A grow
/// rehashes live chains only, dropping drained keys — so workloads that
/// churn through ever-new peers cannot accumulate dead slots that push
/// the load factor up and degrade every probe chain (they used to count
/// as occupied forever). Probe counts are surfaced through `probes()`
/// and exported as `sim.mailbox.probes`.
class Mailbox {
 public:
  /// Append one arrival to the (peer, tag) FIFO, in a record of `pool`.
  void push(MailboxPool& pool, RankId peer, std::int32_t tag,
            double arrival) {
    if (used_ * 4 >= slots_.size() * 3) grow();
    Slot& slot = locate(key_of(peer));
    const std::int32_t record = pool.take(tag, arrival);
    if (slot.head == -1) {
      slot.head = record;
    } else {
      pool[slot.tail].next = record;
    }
    slot.tail = record;
  }

  /// Pop the oldest pending arrival of (peer, tag) into `*arrival`,
  /// giving its record back to `pool`; returns false when none is
  /// pending.
  [[nodiscard]] bool try_pop(MailboxPool& pool, RankId peer, std::int32_t tag,
                             double* arrival) {
    if (slots_.empty()) return false;
    Slot* slot = find(key_of(peer));
    if (slot == nullptr) return false;
    std::int32_t prev = -1;
    for (std::int32_t cur = slot->head; cur != -1;) {
      const MailboxPool::Record& r = pool[cur];
      if (r.tag == tag) {
        *arrival = r.arrival;
        if (prev == -1) {
          slot->head = r.next;
        } else {
          pool[prev].next = r.next;
        }
        if (slot->tail == cur) slot->tail = prev;
        pool.give_back(cur);
        return true;
      }
      prev = cur;
      cur = r.next;
    }
    return false;
  }

  /// Slot inspections performed by all lookups so far (the hash table's
  /// work metric; == lookups when every probe hits its home slot).
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

  /// Current slot-array capacity (a power of two; 0 before any push).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Keyed slots (peers) whose FIFO chain is currently non-empty
  /// (O(capacity); a test/diagnostic accessor, not a hot-path one).
  [[nodiscard]] std::size_t live_slots() const {
    std::size_t live = 0;
    for (const Slot& slot : slots_) live += slot.head != -1 ? 1U : 0U;
    return live;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::int32_t head = -1;  ///< pool index of the oldest record
    std::int32_t tail = -1;  ///< pool index of the newest record
  };
  /// peer is a non-negative rank, so the key's high bits are zero and
  /// the all-ones empty sentinel never collides.
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  static std::uint64_t key_of(RankId peer) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(peer));
  }

  /// SplitMix64 finalizer: avalanches the key so linear probing sees a
  /// uniform distribution even for dense rank ranges.
  static std::uint64_t mix(std::uint64_t key) {
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return key;
  }

  /// Find the slot holding `key`, or nullptr when absent.
  [[nodiscard]] Slot* find(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      ++probes_;
      Slot& slot = slots_[i];
      if (slot.key == key) return &slot;
      if (slot.key == kEmptyKey) return nullptr;
    }
  }

  /// Find the slot holding `key`, claiming an empty one when absent.
  [[nodiscard]] Slot& locate(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      ++probes_;
      Slot& slot = slots_[i];
      if (slot.key == key) return slot;
      if (slot.key == kEmptyKey) {
        slot.key = key;
        ++used_;
        return slot;
      }
    }
  }

  void grow() {
    // Rehash live chains only: a drained slot's key is dropped here, so
    // dead keys never count against the load factor across grows. The
    // capacity doubles only when the live keys alone would keep the new
    // table at or above the 3/4 trigger — a churn-only mailbox (every
    // key drained before the next appears) stays at its current size
    // forever instead of doubling on schedule.
    std::vector<Slot> old = std::move(slots_);
    std::size_t live = 0;
    for (const Slot& slot : old) live += slot.head != -1 ? 1U : 0U;
    std::size_t capacity = old.empty() ? 16 : old.size();
    while (live * 4 >= capacity * 3) capacity *= 2;
    slots_.assign(capacity, Slot{});
    const std::size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey || slot.head == -1) continue;
      std::size_t i = mix(slot.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = slot;
    }
    used_ = live;
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace krak::sim
