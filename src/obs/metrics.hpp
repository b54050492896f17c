#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "util/stopwatch.hpp"

namespace krak::obs {

/// Value of one metric at snapshot time.
struct MetricValue {
  enum class Kind : std::uint8_t { kCounter, kGauge, kTimer };
  Kind kind = Kind::kCounter;
  /// Counter value, or number of Timer::record calls (0 for gauges).
  std::int64_t count = 0;
  /// Gauge value, or accumulated Timer seconds (0 for counters).
  double value = 0.0;
};

[[nodiscard]] std::string_view metric_kind_name(MetricValue::Kind kind);

/// Sorted name -> value map; the unit every reporter consumes.
using Snapshot = std::map<std::string, MetricValue>;

/// Monotone event count (messages sent, runs executed, ...).
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins sample (the last parallel run's coordinator wall).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Accumulated duration plus call count (mean = total / count).
class Timer {
 public:
  /// Record one interval of `seconds`.
  void record(double seconds) {
    double current = total_.load(std::memory_order_relaxed);
    while (!total_.compare_exchange_weak(current, current + seconds,
                                         std::memory_order_relaxed)) {
    }
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double total_seconds() const {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> total_{0.0};
  std::atomic<std::int64_t> count_{0};
};

/// RAII wall-clock probe: records the scope's elapsed seconds into
/// `timer` on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) : timer_(timer) {}
  ~ScopedTimer() { timer_.record(watch_.seconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  util::Stopwatch watch_;
};

/// Thread-safe named-metric registry. Registration returns a stable
/// reference (metrics are never removed), so hot paths look a metric up
/// once — typically through a function-local static — and record through
/// the reference thereafter. A name identifies exactly one metric; asking
/// for an existing name with a different kind throws InvalidArgument.
class Registry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Timer& timer(std::string_view name);

  /// Copy out every metric's current value, sorted by name.
  [[nodiscard]] Snapshot snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricValue::Kind kind = MetricValue::Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Timer> timer;
  };
  Entry& entry_for(std::string_view name, MetricValue::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// The process-wide registry the library's built-in probes record into
/// (metric names are catalogued in docs/OBSERVABILITY.md).
[[nodiscard]] Registry& global_registry();

}  // namespace krak::obs
