// Smoke test for the obs record path: recording through
// already-registered metrics must not allocate. Global operator
// new/delete are replaced with counting forwards to malloc/free, so any
// heap traffic on the hot path shows up as a baseline delta.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/metrics.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};

std::int64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// gcc's -Wmismatched-new-delete pairs the malloc inside the replaced
// operator new with the free inside the replaced operator delete and
// flags the pair — but forwarding both to malloc/free is exactly the
// point of the replacement, so the match is correct by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace krak::obs {
namespace {

TEST(ObsAllocation, EnabledRecordingThroughRegisteredMetricsIsAllocationFree) {
  // Recording is a few atomic operations; only registration and
  // snapshotting may touch the heap.
  Registry registry;
  Counter& counter = registry.counter("alloc_test.count");
  Gauge& gauge = registry.gauge("alloc_test.depth");
  Timer& timer = registry.timer("alloc_test.seconds");

  const std::int64_t baseline = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    counter.add();
    gauge.set(static_cast<double>(i));
    timer.record(1e-6);
    ScopedTimer scope(timer);
  }
  EXPECT_EQ(allocation_count(), baseline);

  EXPECT_EQ(counter.value(), 1000);
  EXPECT_EQ(timer.count(), 2000);  // 1000 record() + 1000 ScopedTimer
}

}  // namespace
}  // namespace krak::obs
