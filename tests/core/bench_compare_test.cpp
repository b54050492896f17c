// The krak_bench --compare gate (core::compare_campaign_walls) and the
// PR 7 regression it fixes: a campaign name unmatched in either
// direction used to pass silently — a renamed or dropped campaign
// disabled its perf gate without anyone noticing. Unmatched names must
// now fail with a clear message.

#include "core/bench_report.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/bench_schema.hpp"
#include "obs/json.hpp"

namespace krak::core {
namespace {

obs::Json report_with(
    const std::vector<std::pair<std::string, double>>& campaigns) {
  obs::Json out = obs::Json::object();
  obs::Json array = obs::Json::array();
  for (const auto& [name, wall] : campaigns) {
    obs::Json campaign = obs::Json::object();
    campaign["name"] = name;
    campaign["wall_seconds"] = wall;
    array.push_back(std::move(campaign));
  }
  out["campaigns"] = std::move(array);
  return out;
}

TEST(CompareCampaignWalls, MatchedWithinFactorPasses) {
  const obs::Json report = report_with({{"table5", 1.2}, {"table6", 0.8}});
  const obs::Json baseline = report_with({{"table5", 1.0}, {"table6", 1.0}});
  EXPECT_TRUE(compare_campaign_walls(report, baseline, 1.5).empty());
}

TEST(CompareCampaignWalls, RegressionBeyondFactorFails) {
  const obs::Json report = report_with({{"table5", 1.51}, {"table6", 0.8}});
  const obs::Json baseline = report_with({{"table5", 1.0}, {"table6", 1.0}});
  const std::vector<std::string> failures =
      compare_campaign_walls(report, baseline, 1.5);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("table5"), std::string::npos);
  EXPECT_NE(failures[0].find("regressed"), std::string::npos);
}

TEST(CompareCampaignWalls, ExactlyAtFactorStillPasses) {
  const obs::Json report = report_with({{"table5", 1.5}});
  const obs::Json baseline = report_with({{"table5", 1.0}});
  EXPECT_TRUE(compare_campaign_walls(report, baseline, 1.5).empty());
}

TEST(CompareCampaignWalls, CampaignMissingFromBaselineFails) {
  // The silent-pass regression, direction one: the report gained a
  // campaign the baseline has never measured.
  const obs::Json report = report_with({{"table5", 1.0}, {"brand_new", 0.1}});
  const obs::Json baseline = report_with({{"table5", 1.0}});
  const std::vector<std::string> failures =
      compare_campaign_walls(report, baseline, 1.5);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("brand_new"), std::string::npos);
  EXPECT_NE(failures[0].find("baseline"), std::string::npos);
}

TEST(CompareCampaignWalls, BaselineCampaignMissingFromReportFails) {
  // Direction two: a campaign was renamed or dropped, so its baseline
  // entry no longer gates anything.
  const obs::Json report = report_with({{"table5", 1.0}});
  const obs::Json baseline = report_with({{"table5", 1.0}, {"table6", 1.0}});
  const std::vector<std::string> failures =
      compare_campaign_walls(report, baseline, 1.5);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("table6"), std::string::npos);
  EXPECT_NE(failures[0].find("missing"), std::string::npos);
}

TEST(CompareCampaignWalls, RenamedCampaignFailsInBothDirections) {
  const obs::Json report = report_with({{"table5_v2", 1.0}});
  const obs::Json baseline = report_with({{"table5", 1.0}});
  EXPECT_EQ(compare_campaign_walls(report, baseline, 1.5).size(), 2u);
}

TEST(CompareCampaignWalls, MultipleFailuresAllReported) {
  const obs::Json report =
      report_with({{"a", 10.0}, {"b", 10.0}, {"only_report", 1.0}});
  const obs::Json baseline =
      report_with({{"a", 1.0}, {"b", 1.0}, {"only_baseline", 1.0}});
  EXPECT_EQ(compare_campaign_walls(report, baseline, 1.5).size(), 4u);
}

/// A report whose "replays" array holds (name, parallel_wall_s) pairs;
/// a negative wall means a serial replay with no "parallel" object.
obs::Json report_with_replays(
    const std::vector<std::pair<std::string, double>>& replays) {
  obs::Json out = obs::Json::object();
  obs::Json array = obs::Json::array();
  for (const auto& [name, wall] : replays) {
    obs::Json replay = obs::Json::object();
    replay["name"] = name;
    if (wall >= 0.0) {
      attach_parallel_scaling(replay, /*threads=*/8, /*serial_wall_s=*/wall,
                              wall);
    }
    array.push_back(std::move(replay));
  }
  out["replays"] = std::move(array);
  return out;
}

TEST(CompareReplayWalls, MatchedWithinFactorPasses) {
  const obs::Json report =
      report_with_replays({{"small_parallel", 1.2}, {"serial_only", -1.0}});
  const obs::Json baseline =
      report_with_replays({{"small_parallel", 1.0}, {"serial_only", -1.0}});
  EXPECT_TRUE(compare_replay_walls(report, baseline, 1.5).empty());
}

TEST(CompareReplayWalls, RegressionBeyondFactorFails) {
  const obs::Json report = report_with_replays({{"small_parallel", 1.6}});
  const obs::Json baseline = report_with_replays({{"small_parallel", 1.0}});
  const std::vector<std::string> failures =
      compare_replay_walls(report, baseline, 1.5);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("small_parallel"), std::string::npos);
  EXPECT_NE(failures[0].find("regressed"), std::string::npos);
}

TEST(CompareReplayWalls, SerialReplaysAreNotGated) {
  // A serial replay has no engine wall to bound; its presence on either
  // side must not trip the bidirectional matching.
  const obs::Json report =
      report_with_replays({{"parallel", 1.0}, {"report_serial", -1.0}});
  const obs::Json baseline =
      report_with_replays({{"parallel", 1.0}, {"baseline_serial", -1.0}});
  EXPECT_TRUE(compare_replay_walls(report, baseline, 1.5).empty());
}

TEST(CompareReplayWalls, UnmatchedParallelReplayFailsBothDirections) {
  const obs::Json report = report_with_replays({{"renamed_parallel", 1.0}});
  const obs::Json baseline = report_with_replays({{"old_parallel", 1.0}});
  EXPECT_EQ(compare_replay_walls(report, baseline, 1.5).size(), 2u);
}

TEST(AttachParallelScaling, EmitsSchemaValidObject) {
  obs::Json replay = obs::Json::object();
  replay["name"] = std::string("scaling");
  attach_parallel_scaling(replay, /*threads=*/8, /*serial_wall_s=*/2.0,
                          /*parallel_wall_s=*/0.5);
  const obs::Json* parallel = replay.find("parallel");
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->find("threads")->as_double(), 8.0);
  EXPECT_DOUBLE_EQ(parallel->find("serial_wall_s")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(parallel->find("parallel_wall_s")->as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parallel->find("speedup_vs_oracle")->as_double(), 4.0);
  EXPECT_EQ(parallel->find("speedup"), nullptr);
}

TEST(AttachParallelScaling, ZeroParallelWallYieldsZeroSpeedup) {
  obs::Json replay = obs::Json::object();
  attach_parallel_scaling(replay, 2, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(
      replay.find("parallel")->find("speedup_vs_oracle")->as_double(), 0.0);
}

TEST(AttachParallelScaling, EmitsAmdahlFields) {
  obs::Json replay = obs::Json::object();
  replay["name"] = std::string("scaling");
  attach_parallel_scaling(replay, /*threads=*/8, /*serial_wall_s=*/2.0,
                          /*parallel_wall_s=*/0.5, /*coordinator_s=*/0.05);
  const obs::Json* parallel = replay.find("parallel");
  ASSERT_NE(parallel, nullptr);
  EXPECT_DOUBLE_EQ(parallel->find("speedup_vs_oracle")->as_double(), 4.0);
  EXPECT_DOUBLE_EQ(
      parallel->find("coordinator_serial_fraction")->as_double(), 0.1);
}

TEST(AttachParallelScaling, CoordinatorFractionClampsToOne) {
  // The coordinator wall is measured inside the run and the replay wall
  // outside it; host scheduling noise must never push the recorded
  // fraction past the [0,1] range the schema pins.
  obs::Json replay = obs::Json::object();
  attach_parallel_scaling(replay, 2, 1.0, 0.5, /*coordinator_s=*/0.8);
  EXPECT_DOUBLE_EQ(
      replay.find("parallel")->find("coordinator_serial_fraction")
          ->as_double(),
      1.0);
}

}  // namespace
}  // namespace krak::core
