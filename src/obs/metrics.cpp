#include "obs/metrics.hpp"

#include "util/error.hpp"

namespace krak::obs {

std::string_view metric_kind_name(MetricValue::Kind kind) {
  switch (kind) {
    case MetricValue::Kind::kCounter: return "counter";
    case MetricValue::Kind::kGauge: return "gauge";
    case MetricValue::Kind::kTimer: return "timer";
  }
  return "unknown";
}

Registry::Entry& Registry::entry_for(std::string_view name,
                                     MetricValue::Kind kind) {
  util::check(!name.empty(), "metric name must be non-empty");
  std::lock_guard lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Entry{}).first;
    it->second.kind = kind;
    switch (kind) {
      case MetricValue::Kind::kCounter:
        it->second.counter = std::make_unique<Counter>();
        break;
      case MetricValue::Kind::kGauge:
        it->second.gauge = std::make_unique<Gauge>();
        break;
      case MetricValue::Kind::kTimer:
        it->second.timer = std::make_unique<Timer>();
        break;
    }
  }
  util::check(it->second.kind == kind,
              "metric already registered with a different kind");
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry_for(name, MetricValue::Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry_for(name, MetricValue::Kind::kGauge).gauge;
}

Timer& Registry::timer(std::string_view name) {
  return *entry_for(name, MetricValue::Kind::kTimer).timer;
}

Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  Snapshot out;
  for (const auto& [name, entry] : metrics_) {
    MetricValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case MetricValue::Kind::kCounter:
        value.count = entry.counter->value();
        break;
      case MetricValue::Kind::kGauge:
        value.value = entry.gauge->value();
        break;
      case MetricValue::Kind::kTimer:
        value.count = entry.timer->count();
        value.value = entry.timer->total_seconds();
        break;
    }
    out.emplace(name, value);
  }
  return out;
}

std::size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return metrics_.size();
}

Registry& global_registry() {
  static Registry instance;
  return instance;
}

}  // namespace krak::obs
