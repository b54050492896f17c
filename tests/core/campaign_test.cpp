#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/calibration.hpp"
#include "network/machine.hpp"
#include "util/error.hpp"

namespace krak::core {
namespace {

struct CampaignFixture : public ::testing::Test {
  simapp::ComputationCostEngine engine;
  KrakModel model{
      calibrate_from_input(engine,
                           mesh::make_standard_deck(mesh::DeckSize::kSmall),
                           {8, 32, 128}),
      network::make_es45_qsnet()};
};

TEST_F(CampaignFixture, ProducesOnePointPerRunInOrder) {
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kMeshSpecific},
      {mesh::DeckSize::kSmall, 16, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 32, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2);
  ASSERT_EQ(summary.points.size(), 3u);
  EXPECT_EQ(summary.points[0].pes, 8);
  EXPECT_EQ(summary.points[1].pes, 16);
  EXPECT_EQ(summary.points[2].pes, 32);
  for (const ValidationPoint& point : summary.points) {
    EXPECT_GT(point.measured, 0.0);
    EXPECT_GT(point.predicted, 0.0);
  }
}

TEST_F(CampaignFixture, SummaryStatisticsConsistent) {
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 64, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs);
  double worst = 0.0;
  double sum = 0.0;
  for (const ValidationPoint& point : summary.points) {
    worst = std::max(worst, std::abs(point.error()));
    sum += std::abs(point.error());
  }
  EXPECT_DOUBLE_EQ(summary.worst_abs_error, worst);
  EXPECT_DOUBLE_EQ(summary.mean_abs_error, sum / 2.0);
  EXPECT_GE(summary.worst_abs_error, summary.mean_abs_error);
}

TEST_F(CampaignFixture, ParallelAndSerialAgree) {
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kMeshSpecific},
      {mesh::DeckSize::kSmall, 16, CampaignRun::Flavor::kMeshSpecific},
      {mesh::DeckSize::kSmall, 32, CampaignRun::Flavor::kMeshSpecific},
      {mesh::DeckSize::kSmall, 64, CampaignRun::Flavor::kMeshSpecific},
  };
  const CampaignSummary serial =
      run_validation_campaign(model, engine, runs, {}, 1);
  const CampaignSummary parallel =
      run_validation_campaign(model, engine, runs, {}, 8);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.points[i].measured, parallel.points[i].measured);
    EXPECT_DOUBLE_EQ(serial.points[i].predicted, parallel.points[i].predicted);
  }
}

TEST_F(CampaignFixture, EmptyCampaignRejected) {
  EXPECT_THROW((void)run_validation_campaign(model, engine, {}),
               util::InvalidArgument);
}

TEST_F(CampaignFixture, ObservabilityFieldsAreConsistent) {
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 16, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 32, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2);
  EXPECT_GT(summary.wall_seconds, 0.0);
  ASSERT_EQ(summary.run_wall_seconds.size(), runs.size());
  double busy = 0.0;
  for (const double run_wall : summary.run_wall_seconds) {
    EXPECT_GT(run_wall, 0.0);
    EXPECT_LE(run_wall, summary.wall_seconds * 1.01);
    busy += run_wall;
  }
  EXPECT_EQ(summary.threads_used, 2u);
  EXPECT_GT(summary.thread_utilization, 0.0);
  EXPECT_LE(summary.thread_utilization, 1.0);
  // utilization = busy / (wall * threads), clamped to 1.
  EXPECT_NEAR(summary.thread_utilization,
              std::min(1.0, busy / (summary.wall_seconds * 2.0)), 1e-9);
}

TEST_F(CampaignFixture, ThreadsUsedNeverExceedsRunCount) {
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 8);
  EXPECT_EQ(summary.threads_used, 1u);
}

TEST_F(CampaignFixture, PoisonedRunIsRecordedAndSweepContinues) {
  // A run with an invalid processor count throws inside a pool worker;
  // the campaign must record that scenario under failures (naming it)
  // and still measure every other scenario instead of aborting the
  // sweep.
  const std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, -1, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 16, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2);
  EXPECT_TRUE(summary.degraded());
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures[0].run_index, 1u);
  EXPECT_EQ(summary.failures[0].scenario, campaign_run_name(runs[1]));
  EXPECT_FALSE(summary.failures[0].error.empty());
  EXPECT_FALSE(summary.failures[0].has_sim_failure);
  // The healthy scenarios still produced measurements and aggregates.
  ASSERT_EQ(summary.points.size(), 3u);
  EXPECT_GT(summary.points[0].measured, 0.0);
  EXPECT_GT(summary.points[2].measured, 0.0);
  EXPECT_GT(summary.mean_abs_error, 0.0);
  EXPECT_TRUE(std::isfinite(summary.mean_abs_error));
}

TEST_F(CampaignFixture, FaultHungScenarioIsRecordedWithStructuredCause) {
  // The middle run carries a fault plan that loses nearly every message,
  // so its measurement hangs and the watchdog reports a structured
  // SimFailure; the campaign must record it (with the simulator's
  // diagnosis, not just a string) and still measure the other runs.
  std::vector<CampaignRun> runs = {
      {mesh::DeckSize::kSmall, 8, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 16, CampaignRun::Flavor::kGeneralHomogeneous},
      {mesh::DeckSize::kSmall, 32, CampaignRun::Flavor::kGeneralHomogeneous},
  };
  fault::MessageFaultModel lossy;
  lossy.drop_probability = 0.9;
  lossy.max_retries = 0;
  runs[1].faults.message_faults.push_back(lossy);

  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2);
  EXPECT_TRUE(summary.degraded());
  ASSERT_EQ(summary.failures.size(), 1u);
  const CampaignFailure& failure = summary.failures[0];
  EXPECT_EQ(failure.run_index, 1u);
  EXPECT_EQ(failure.scenario, campaign_run_name(runs[1]));
  ASSERT_TRUE(failure.has_sim_failure);
  EXPECT_GE(failure.sim_failure.rank, 0);
  // The recorded error is the simulator's own one-line diagnosis.
  EXPECT_EQ(failure.error, failure.sim_failure.to_string());
  EXPECT_NE(failure.error.find("rank"), std::string::npos) << failure.error;
  // Healthy scenarios still measured.
  EXPECT_GT(summary.points[0].measured, 0.0);
  EXPECT_GT(summary.points[2].measured, 0.0);
}

TEST(CampaignPresets, MatchPaperTables) {
  const auto t5 = table5_runs();
  EXPECT_EQ(t5.size(), 6u);
  for (const CampaignRun& run : t5) {
    EXPECT_EQ(run.flavor, CampaignRun::Flavor::kMeshSpecific);
  }
  const auto t6 = table6_runs();
  EXPECT_EQ(t6.size(), 6u);
  EXPECT_EQ(t6.front().deck, mesh::DeckSize::kMedium);
  EXPECT_EQ(t6.back().deck, mesh::DeckSize::kLarge);
  EXPECT_EQ(t6.back().pes, 512);
}

}  // namespace
}  // namespace krak::core
