#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/error.hpp"

namespace krak::obs {
namespace {

TEST(Counter, AccumulatesAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(Gauge, LastWriteWins) {
  Gauge gauge;
  gauge.set(1.5);
  gauge.set(-2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.5);
}

TEST(Timer, AccumulatesTotalAndCount) {
  Timer timer;
  timer.record(0.25);
  timer.record(0.5);
  EXPECT_DOUBLE_EQ(timer.total_seconds(), 0.75);
  EXPECT_EQ(timer.count(), 2);
}

TEST(Timer, ConcurrentRecordsAllLand) {
  Timer timer;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer] {
      for (int i = 0; i < kRecordsPerThread; ++i) timer.record(0.001);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(timer.count(), kThreads * kRecordsPerThread);
  EXPECT_NEAR(timer.total_seconds(), kThreads * kRecordsPerThread * 0.001,
              1e-9);
}

TEST(ScopedTimer, RecordsOneIntervalOnDestruction) {
  Timer timer;
  {
    ScopedTimer scope(timer);
  }
  EXPECT_EQ(timer.count(), 1);
  EXPECT_GE(timer.total_seconds(), 0.0);
}

TEST(Registry, ReturnsStableReferences) {
  Registry registry;
  Counter& first = registry.counter("events");
  first.add(3);
  Counter& second = registry.counter("events");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value(), 3);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, KindCollisionThrows) {
  Registry registry;
  (void)registry.counter("metric");
  EXPECT_THROW((void)registry.gauge("metric"), util::InvalidArgument);
  EXPECT_THROW((void)registry.timer("metric"), util::InvalidArgument);
}

TEST(Registry, SnapshotCarriesEveryKind) {
  Registry registry;
  registry.counter("a.count").add(5);
  registry.gauge("b.depth").set(3.5);
  registry.timer("c.seconds").record(0.125);

  const Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);

  const MetricValue& counter = snapshot.at("a.count");
  EXPECT_EQ(counter.kind, MetricValue::Kind::kCounter);
  EXPECT_EQ(counter.count, 5);

  const MetricValue& gauge = snapshot.at("b.depth");
  EXPECT_EQ(gauge.kind, MetricValue::Kind::kGauge);
  EXPECT_DOUBLE_EQ(gauge.value, 3.5);

  const MetricValue& timer = snapshot.at("c.seconds");
  EXPECT_EQ(timer.kind, MetricValue::Kind::kTimer);
  EXPECT_EQ(timer.count, 1);
  EXPECT_DOUBLE_EQ(timer.value, 0.125);
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&global_registry(), &global_registry());
}

TEST(MetricKindName, NamesAllKinds) {
  EXPECT_EQ(metric_kind_name(MetricValue::Kind::kCounter), "counter");
  EXPECT_EQ(metric_kind_name(MetricValue::Kind::kGauge), "gauge");
  EXPECT_EQ(metric_kind_name(MetricValue::Kind::kTimer), "timer");
}

}  // namespace
}  // namespace krak::obs
