#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace krak::sim {

void EventQueue::schedule(double time, SimEvent event) {
  // Also refuses NaN, which compares false with everything.
  KRAK_REQUIRE(time >= now_, "cannot schedule an event in the past");
  // The kind occupies the sequence word's low 2 bits, capping sequence
  // numbers at 2^30 — comfortably past kDefaultMaxEvents, but guard it:
  // a silent wrap would corrupt the tie-break order.
  KRAK_REQUIRE(next_seq_ < (std::uint64_t{1} << 30),
               "event sequence numbers exhausted");
  Entry entry;
  entry.time = time;
  entry.seq_kind = static_cast<std::uint32_t>(next_seq_++ << 2) |
                   static_cast<std::uint32_t>(event.kind);
  entry.rank = event.rank;
  entry.peer = event.peer;
  entry.tag = event.tag;
  max_size_ = std::max(max_size_, ++size_);

  if (time > rung_max_) {
    top_.push_back(entry);
    top_min_ = std::min(top_min_, time);
    top_max_ = std::max(top_max_, time);
    return;
  }
  if (time >= rung_start_) {
    const std::size_t bucket = bucket_of(time);
    if (bucket >= loaded_) {
      side_next_.push_back(side_head_[bucket]);
      side_head_[bucket] = static_cast<std::uint32_t>(side_.size());
      side_.push_back(entry);
      return;
    }
  }
  // Earlier than the rung, or in a bucket already loaded: the bottom
  // heap orders it exactly.
  // Sift up: restore the heap property along the root path.
  bottom_.push_back(entry);
  std::size_t child = bottom_.size() - 1;
  while (child > 0) {
    const std::size_t parent = (child - 1) / kArity;
    if (!bottom_[child].before(bottom_[parent])) break;
    std::swap(bottom_[child], bottom_[parent]);
    child = parent;
  }
}

void EventQueue::sift_down(std::size_t parent) {
  // The heap is kArity-ary: a node's children are contiguous, so the
  // min-of-children scan walks adjacent cache lines.
  const std::size_t n = bottom_.size();
  while (true) {
    const std::size_t first = kArity * parent + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (bottom_[child].before(bottom_[least])) least = child;
    }
    if (!bottom_[least].before(bottom_[parent])) break;
    std::swap(bottom_[parent], bottom_[least]);
    parent = least;
  }
}

EventQueue::Entry EventQueue::pop_min() {
  const Entry top = bottom_.front();
  bottom_.front() = bottom_.back();
  bottom_.pop_back();
  sift_down(0);
  --size_;
  return top;
}

void EventQueue::load_next_bucket() {
  // Every bottom event is strictly earlier than every unloaded bucket's
  // and every top event, so with the bottom empty the next non-empty
  // bucket holds the earliest pending events.
  while (true) {
    while (loaded_ < bucket_end_.size()) {
      const std::size_t bucket = loaded_++;
      const std::size_t begin = bucket == 0 ? 0 : bucket_end_[bucket - 1];
      bottom_.assign(rung_.begin() + static_cast<std::ptrdiff_t>(begin),
                     rung_.begin() +
                         static_cast<std::ptrdiff_t>(bucket_end_[bucket]));
      for (std::uint32_t i = side_head_[bucket]; i != kNoLink;
           i = side_next_[i]) {
        bottom_.push_back(side_[i]);
      }
      if (bottom_.empty()) continue;
      for (std::size_t parent = (bottom_.size() - 1) / kArity + 1;
           parent-- > 0;) {
        sift_down(parent);
      }
      return;
    }
    build_rung();
  }
}

void EventQueue::build_rung() {
  util::require_internal(!top_.empty(), "event queue tiers out of step");
  // The rung takes the top tier's array and the spent rung's array
  // (every bucket loaded) is freed, so at the replays' bursts the queue
  // holds one large array, not two.
  rung_ = std::move(top_);
  top_ = std::vector<Entry>();
  side_.clear();
  side_next_.clear();
  rung_start_ = top_min_;
  rung_max_ = top_max_;
  top_min_ = std::numeric_limits<double>::infinity();
  top_max_ = -std::numeric_limits<double>::infinity();

  // Equal-width buckets of about kBucketEvents events each; a single
  // bucket when every time is equal (the kick-off, a collective's
  // release steps) or the span has no finite scale.
  const std::size_t n = rung_.size();
  std::size_t buckets = std::max<std::size_t>(1, n / kBucketEvents);
  rung_scale_ = static_cast<double>(buckets) / (rung_max_ - rung_start_);
  if (!(rung_scale_ > 0.0 && std::isfinite(rung_scale_))) {
    buckets = 1;
    rung_scale_ = 0.0;
  }
  bucket_end_.assign(buckets, 0);
  side_head_.assign(buckets, kNoLink);
  loaded_ = 0;
  if (buckets == 1) {
    bucket_end_[0] = static_cast<std::uint32_t>(n);
    return;
  }

  // Counting sort in place (American flag sort): count each bucket,
  // then cycle every entry into its bucket's next free slot.
  for (const Entry& entry : rung_) ++bucket_end_[bucket_of(entry.time)];
  side_head_[0] = 0;
  for (std::size_t b = 1; b < buckets; ++b) {
    side_head_[b] = bucket_end_[b - 1];  // next free slot of bucket b
    bucket_end_[b] += bucket_end_[b - 1];
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    while (side_head_[b] < bucket_end_[b]) {
      Entry entry = rung_[side_head_[b]];
      std::size_t home = bucket_of(entry.time);
      while (home != b) {
        std::swap(entry, rung_[side_head_[home]++]);
        home = bucket_of(entry.time);
      }
      rung_[side_head_[b]++] = entry;
    }
  }
  std::fill(side_head_.begin(), side_head_.end(), kNoLink);
}

}  // namespace krak::sim
