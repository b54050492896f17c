#include "obs/report.hpp"

namespace krak::obs {

Json snapshot_to_json(const Snapshot& snapshot) {
  Json out = Json::object();
  for (const auto& [name, metric] : snapshot) {
    Json entry = Json::object();
    entry["kind"] = std::string(metric_kind_name(metric.kind));
    switch (metric.kind) {
      case MetricValue::Kind::kCounter:
        entry["count"] = metric.count;
        break;
      case MetricValue::Kind::kGauge:
        entry["value"] = metric.value;
        break;
      case MetricValue::Kind::kTimer:
        entry["count"] = metric.count;
        entry["total_seconds"] = metric.value;
        break;
    }
    out[name] = std::move(entry);
  }
  return out;
}

}  // namespace krak::obs
