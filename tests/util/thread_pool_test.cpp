#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace krak::util {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SubmitRejectsEmptyCallable) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), InvalidArgument);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleIndex) {
  ThreadPool pool(4);
  std::atomic<int> value{0};
  pool.parallel_for(1, [&value](std::size_t i) {
    value = static_cast<int>(i) + 7;
  });
  EXPECT_EQ(value.load(), 7);
}

TEST(ThreadPool, ParallelForActuallyRunsConcurrently) {
  // With 4 workers and 4 tasks of ~30ms each, the wall time should be
  // well under the 120ms serial time.
  ThreadPool pool(4);
  const Stopwatch watch;
  pool.parallel_for(4, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  EXPECT_LT(watch.seconds(), 0.110);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.submit([&counter] { counter.fetch_add(10); });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  // Regression: a KrakError escaping a worker used to hit the raw task
  // wrapper and std::terminate the whole process.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](std::size_t i) {
                     if (i == 3) throw KrakError("poisoned index");
                   }),
               KrakError);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionWithMessage) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t i) {
      if (i == 1) throw InvalidArgument("index 1 rejected");
    });
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("index 1 rejected"),
              std::string::npos);
  }
}

TEST(ThreadPool, ParallelForStopsClaimingAfterFailure) {
  // After the failure is observed, unclaimed indices are skipped — the
  // executed count stays well below the total.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  constexpr std::size_t kCount = 100000;
  EXPECT_THROW(pool.parallel_for(kCount,
                                 [&executed](std::size_t i) {
                                   executed.fetch_add(1);
                                   if (i == 0) {
                                     throw KrakError("early failure");
                                   }
                                 }),
               KrakError);
  EXPECT_LT(executed.load(), static_cast<int>(kCount));
}

TEST(ThreadPool, PoolIsReusableAfterParallelForFailure) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t) { throw KrakError("boom"); }),
      KrakError);
  std::atomic<int> counter{0};
  pool.parallel_for(16, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, ChunkedCoversEveryIndexExactlyOnceAcrossGrains) {
  ThreadPool pool(8);
  constexpr std::size_t kCount = 10000;
  for (const std::size_t grain : {1u, 7u, 64u, 4096u}) {
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for_chunked(kCount, grain,
                              [&hits](std::size_t begin, std::size_t end) {
                                for (std::size_t i = begin; i < end; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPool, ChunkedRespectsGrainBound) {
  ThreadPool pool(4);
  std::atomic<std::size_t> max_chunk{0};
  std::atomic<std::size_t> chunks{0};
  pool.parallel_for_chunked(1000, 128,
                            [&](std::size_t begin, std::size_t end) {
                              chunks.fetch_add(1);
                              std::size_t size = end - begin;
                              std::size_t seen = max_chunk.load();
                              while (size > seen &&
                                     !max_chunk.compare_exchange_weak(seen,
                                                                      size)) {
                              }
                            });
  EXPECT_LE(max_chunk.load(), 128u);
  // 1000 / 128 -> 7 full chunks plus one remainder of 104.
  EXPECT_GE(chunks.load(), 8u);
}

TEST(ThreadPool, ChunkedGrainLargerThanCountIsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_chunked(10, 1000,
                            [&](std::size_t begin, std::size_t end) {
                              chunks.fetch_add(1);
                              covered.fetch_add(end - begin);
                            });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ThreadPool, ChunkedZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_chunked(0, 16, [&ran](std::size_t, std::size_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ChunkedPropagatesFirstExceptionAndStopsClaiming) {
  // The first throw of a process initializes the unwinder, which can take
  // longer than the second worker needs to run every remaining chunk.
  // Pay that one-time cost here so the race below is between the pool's
  // failure flag and chunk claiming only.
  try {
    throw InvalidArgument("unwinder warm-up");
  } catch (const InvalidArgument&) {
  }
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  constexpr std::size_t kCount = 100000;
  // Every other chunk waits until chunk 0 is about to throw, so the
  // other worker cannot run ahead while the worker holding chunk 0 is
  // descheduled; it can race only the throw itself.
  std::latch throwing(1);
  try {
    pool.parallel_for_chunked(
        kCount, 16, [&executed, &throwing](std::size_t begin, std::size_t) {
          executed.fetch_add(1);
          if (begin == 0) {
            throwing.count_down();
            throw InvalidArgument("first chunk rejected");
          }
          throwing.wait();
        });
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("first chunk rejected"),
              std::string::npos);
  }
  EXPECT_LT(executed.load(), static_cast<int>(kCount / 16));
}

TEST(ThreadPool, ChunkedIsReusableAfterFailure) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_chunked(
                   8, 2,
                   [](std::size_t, std::size_t) { throw KrakError("boom"); }),
               KrakError);
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_chunked(64, 8,
                            [&covered](std::size_t begin, std::size_t end) {
                              covered.fetch_add(end - begin);
                            });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(ThreadPool, ParallelForAccumulatesCorrectSum) {
  ThreadPool pool(8);
  constexpr std::size_t kCount = 1000;
  std::vector<long> results(kCount, 0);
  pool.parallel_for(kCount, [&results](std::size_t i) {
    results[i] = static_cast<long>(i) * 2;
  });
  const long sum = std::accumulate(results.begin(), results.end(), 0L);
  EXPECT_EQ(sum, static_cast<long>(kCount) * (kCount - 1));
}

}  // namespace
}  // namespace krak::util
