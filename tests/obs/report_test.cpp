#include "obs/report.hpp"

#include <gtest/gtest.h>

namespace krak::obs {
namespace {

Snapshot example_snapshot() {
  Snapshot snapshot;
  snapshot["sim.events"] = {MetricValue::Kind::kCounter, 120, 0.0};
  snapshot["sim.parallel.coordinator_s"] = {MetricValue::Kind::kGauge, 0, 7.0};
  snapshot["partition.fm.seconds"] = {MetricValue::Kind::kTimer, 4, 0.5};
  return snapshot;
}

/// Byte-exact golden rendering: object keys are sorted and numbers use
/// shortest-round-trip formatting, so this string is stable across
/// platforms. A change here is a report-format change and needs a note
/// in docs/OBSERVABILITY.md.
constexpr const char* kGolden = R"({
  "partition.fm.seconds": {
    "count": 4,
    "kind": "timer",
    "total_seconds": 0.5
  },
  "sim.events": {
    "count": 120,
    "kind": "counter"
  },
  "sim.parallel.coordinator_s": {
    "kind": "gauge",
    "value": 7
  }
})";

TEST(Report, SnapshotToJsonMatchesGolden) {
  EXPECT_EQ(snapshot_to_json(example_snapshot()).dump(2), kGolden);
}

}  // namespace
}  // namespace krak::obs
