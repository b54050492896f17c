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
/// times. The representation is a short list of 12-byte slots, one per
/// sending rank, each heading an index-linked FIFO chain of (tag,
/// arrival) records in the shard's MailboxPool — no per-message heap
/// allocation. Every call names the pool of the rank's shard. A pop for
/// (peer, tag) takes the first tag match in the peer's chain; records
/// are appended in event-fire order, so that match is exactly the
/// oldest pending arrival of the pair and the per-(peer, tag) FIFO
/// contract holds.
///
/// A list, scanned linearly, because a rank talks to the few neighbors
/// its partition fixes: the 102,400-rank replay's RCB partition gives a
/// rank 5.5 on average and at most 8, the validation decks' multilevel
/// partitions at most 34. Keying by peer instead of (peer, tag) keeps
/// it that short: a Krak rank uses a distinct tag per (phase, step,
/// message), so pair keying would list hundreds of keys per rank
/// (docs/PERFORMANCE.md, "The mailbox").
///
/// A drained slot keeps its peer, so the steady state of the Krak
/// exchange (the same neighbors every iteration) finds its slot again.
/// A push for a peer with no slot takes the first drained slot before it
/// appends one, so a rank holds at most its peak of simultaneously live
/// peers, however many peers churn through it. Slots inspected, an
/// appended one included, are counted by `probes()` and exported as
/// `sim.mailbox.probes`.
class Mailbox {
 public:
  /// Append one arrival to the (peer, tag) FIFO, in a record of `pool`.
  void push(MailboxPool& pool, RankId peer, std::int32_t tag,
            double arrival) {
    Slot* slot = nullptr;
    Slot* drained = nullptr;
    for (Slot& candidate : slots_) {
      ++probes_;
      if (candidate.peer == peer) {
        slot = &candidate;
        break;
      }
      if (drained == nullptr && candidate.head == -1) drained = &candidate;
    }
    if (slot == nullptr) {
      slot = drained;
      if (slot == nullptr) {
        ++probes_;  // an appended slot counts as inspected
        slot = &slots_.emplace_back();
      }
      *slot = Slot{peer, -1, -1};
    }
    const std::int32_t record = pool.take(tag, arrival);
    if (slot->head == -1) {
      slot->head = record;
    } else {
      pool[slot->tail].next = record;
    }
    slot->tail = record;
  }

  /// Pop the oldest pending arrival of (peer, tag) into `*arrival`,
  /// giving its record back to `pool`; returns false when none is
  /// pending.
  [[nodiscard]] bool try_pop(MailboxPool& pool, RankId peer, std::int32_t tag,
                             double* arrival) {
    for (Slot& slot : slots_) {
      ++probes_;
      if (slot.peer != peer) continue;
      std::int32_t prev = -1;
      for (std::int32_t cur = slot.head; cur != -1;) {
        const MailboxPool::Record& r = pool[cur];
        if (r.tag == tag) {
          *arrival = r.arrival;
          if (prev == -1) {
            slot.head = r.next;
          } else {
            pool[prev].next = r.next;
          }
          if (slot.tail == cur) slot.tail = prev;
          pool.give_back(cur);
          return true;
        }
        prev = cur;
        cur = r.next;
      }
      return false;
    }
    return false;
  }

  /// Slots inspected by all pushes and pops so far, each slot a push
  /// appends included, so every push and every successful pop counts at
  /// least one.
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

  /// Slots held: the peak number of peers with messages pending at once.
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

  /// Slots whose FIFO chain is currently non-empty.
  [[nodiscard]] std::size_t live_slots() const {
    std::size_t live = 0;
    for (const Slot& slot : slots_) live += slot.head != -1 ? 1U : 0U;
    return live;
  }

 private:
  struct Slot {
    RankId peer;
    std::int32_t head;  ///< pool index of the oldest record; -1 when drained
    std::int32_t tail;  ///< pool index of the newest record
  };
  static_assert(sizeof(Slot) == 12, "mailbox slots must stay 12 bytes");

  std::vector<Slot> slots_;
  std::uint64_t probes_ = 0;
};

}  // namespace krak::sim
