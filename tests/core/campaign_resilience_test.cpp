#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "fault/plan.hpp"
#include "network/machine.hpp"
#include "util/cancellation.hpp"

namespace krak::core {
namespace {

namespace fs = std::filesystem;

/// Campaign resilience layer (docs/RESILIENCE.md): journaled resume,
/// bounded retry, poison quarantine, and wall deadlines around
/// run_validation_campaign.
struct CampaignResilienceFixture : public ::testing::Test {
  CampaignResilienceFixture()
      : directory_(fs::path(::testing::TempDir()) /
                   ("krak_resilience_" +
                    std::string(::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name()))),
        journal_path_(directory_ / "campaign.krakjournal") {
    fs::remove_all(directory_);
  }

  ~CampaignResilienceFixture() override {
    std::error_code ec;
    fs::remove_all(directory_, ec);
  }

  /// A run that always throws util::InvalidArgument (a KrakError, so
  /// classified deterministic) before any simulation starts.
  static CampaignRun poison_run() {
    return {mesh::DeckSize::kSmall, -1,
            CampaignRun::Flavor::kGeneralHomogeneous};
  }

  static CampaignRun healthy_run(std::int32_t pes) {
    return {mesh::DeckSize::kSmall, pes,
            CampaignRun::Flavor::kGeneralHomogeneous};
  }

  simapp::ComputationCostEngine engine;
  KrakModel model{
      calibrate_from_input(engine,
                           mesh::make_standard_deck(mesh::DeckSize::kSmall),
                           {8, 32, 128}),
      network::make_es45_qsnet()};
  fs::path directory_;
  fs::path journal_path_;
};

TEST_F(CampaignResilienceFixture, InertPolicyIsBitIdenticalToNoPolicy) {
  const std::vector<CampaignRun> runs = {healthy_run(8), healthy_run(16)};
  const CampaignSummary bare =
      run_validation_campaign(model, engine, runs, {}, 2);
  const CampaignSummary inert =
      run_validation_campaign(model, engine, runs, {}, 2, CampaignPolicy{});
  ASSERT_EQ(inert.points.size(), bare.points.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bare.points[i].measured),
              std::bit_cast<std::uint64_t>(inert.points[i].measured));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(bare.points[i].predicted),
              std::bit_cast<std::uint64_t>(inert.points[i].predicted));
  }
  EXPECT_EQ(inert.resilience.attempts, runs.size());
  EXPECT_EQ(inert.resilience.retries, 0u);
  EXPECT_EQ(inert.resilience.replayed, 0u);
}

TEST_F(CampaignResilienceFixture, ResumeReplaysJournaledPointsBitIdentically) {
  const std::vector<CampaignRun> runs = {healthy_run(8), healthy_run(16)};
  CampaignPolicy policy;
  policy.label = "resume-test";
  CampaignSummary first;
  {
    CampaignJournal journal(journal_path_);
    policy.journal = &journal;
    first = run_validation_campaign(model, engine, runs, {}, 2, policy);
  }
  ASSERT_FALSE(first.degraded());
  EXPECT_EQ(first.resilience.replayed, 0u);

  // A new process over the same journal: every scenario replays from
  // the journal, nothing is re-measured, and the points are the same
  // bits the first process recorded.
  CampaignJournal journal(journal_path_);
  EXPECT_EQ(journal.recovery().completed, runs.size());
  policy.journal = &journal;
  const CampaignSummary resumed =
      run_validation_campaign(model, engine, runs, {}, 2, policy);
  EXPECT_EQ(resumed.resilience.replayed, runs.size());
  EXPECT_EQ(resumed.resilience.attempts, 0u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.points[i].measured),
              std::bit_cast<std::uint64_t>(resumed.points[i].measured));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first.points[i].predicted),
              std::bit_cast<std::uint64_t>(resumed.points[i].predicted));
  }
}

TEST_F(CampaignResilienceFixture, DeterministicFailureIsQuarantinedAfterN) {
  const std::vector<CampaignRun> runs = {healthy_run(8), poison_run()};
  CampaignJournal journal(journal_path_);
  CampaignPolicy policy;
  policy.journal = &journal;
  policy.max_attempts = 5;
  policy.quarantine_after = 2;
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2, policy);
  ASSERT_EQ(summary.failures.size(), 1u);
  const CampaignFailure& failure = summary.failures[0];
  EXPECT_EQ(failure.run_index, 1u);
  EXPECT_TRUE(failure.quarantined);
  EXPECT_FALSE(failure.transient);
  // Quarantine fires at the threshold, not the full attempt budget.
  EXPECT_EQ(failure.attempts, 2u);
  EXPECT_EQ(summary.resilience.quarantined, 1u);
  EXPECT_EQ(summary.resilience.retries, 1u);

  const std::uint64_t fingerprint =
      scenario_fingerprint(policy.label, runs[1], {});
  const CampaignJournal::History history = journal.history(fingerprint);
  EXPECT_TRUE(history.quarantined);
  EXPECT_EQ(history.deterministic_failures, 2u);
}

TEST_F(CampaignResilienceFixture, QuarantinedScenarioIsSkippedOnResume) {
  const std::vector<CampaignRun> runs = {poison_run()};
  CampaignPolicy policy;
  policy.max_attempts = 2;
  policy.quarantine_after = 2;
  {
    CampaignJournal journal(journal_path_);
    policy.journal = &journal;
    (void)run_validation_campaign(model, engine, runs, {}, 1, policy);
  }
  CampaignJournal journal(journal_path_);
  ASSERT_EQ(journal.recovery().quarantined, 1u);
  policy.journal = &journal;
  const CampaignSummary resumed =
      run_validation_campaign(model, engine, runs, {}, 1, policy);
  ASSERT_EQ(resumed.failures.size(), 1u);
  EXPECT_TRUE(resumed.failures[0].quarantined);
  // Skipped without burning a new attempt; the cause is the recorded one.
  EXPECT_EQ(resumed.resilience.attempts, 0u);
  EXPECT_FALSE(resumed.failures[0].error.empty());
}

TEST_F(CampaignResilienceFixture, RetryBudgetStopsBeforeQuarantineThreshold) {
  const std::vector<CampaignRun> runs = {poison_run()};
  CampaignPolicy policy;
  policy.max_attempts = 2;
  policy.quarantine_after = 10;
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 1, policy);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_FALSE(summary.failures[0].quarantined);
  EXPECT_EQ(summary.failures[0].attempts, 2u);
  EXPECT_EQ(summary.resilience.attempts, 2u);
  EXPECT_EQ(summary.resilience.retries, 1u);
  EXPECT_EQ(summary.resilience.quarantined, 0u);
}

TEST_F(CampaignResilienceFixture, BackoffIsDeterministicAndBounded) {
  const std::vector<CampaignRun> runs = {poison_run()};
  CampaignPolicy policy;
  policy.max_attempts = 3;
  policy.quarantine_after = 10;
  policy.backoff_initial_seconds = 0.002;
  const CampaignSummary a =
      run_validation_campaign(model, engine, runs, {}, 1, policy);
  const CampaignSummary b =
      run_validation_campaign(model, engine, runs, {}, 1, policy);
  // Two sleeps happened (before retries 2 and 3), each jittered from
  // the same seeded stream: equal across reruns, bounded by the
  // doubling delays 0.002 and 0.004 s.
  EXPECT_GT(a.resilience.backoff_seconds, 0.0);
  EXPECT_LE(a.resilience.backoff_seconds, 0.002 + 0.004);
  EXPECT_DOUBLE_EQ(a.resilience.backoff_seconds, b.resilience.backoff_seconds);
}

TEST_F(CampaignResilienceFixture, ScenarioDeadlineSurfacesAsTransientFailure) {
  const std::vector<CampaignRun> runs = {healthy_run(8)};
  CampaignPolicy policy;
  policy.scenario_deadline_seconds = 1e-9;  // expires before the first check
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 1, policy);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_TRUE(summary.failures[0].transient);
  EXPECT_FALSE(summary.failures[0].quarantined);
  EXPECT_NE(summary.failures[0].error.find("cancelled"), std::string::npos)
      << summary.failures[0].error;
  EXPECT_EQ(summary.resilience.deadline_failures, 1u);
}

TEST_F(CampaignResilienceFixture, CampaignDeadlineFailsScenariosNotTheSweep) {
  const std::vector<CampaignRun> runs = {healthy_run(8), healthy_run(16),
                                         healthy_run(32)};
  CampaignPolicy policy;
  policy.campaign_deadline_seconds = 1e-9;
  policy.max_attempts = 3;  // expired budget must also suppress retries
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, {}, 2, policy);
  // Every scenario failed structurally — the sweep itself returned.
  ASSERT_EQ(summary.failures.size(), runs.size());
  for (const CampaignFailure& failure : summary.failures) {
    EXPECT_TRUE(failure.transient);
    EXPECT_EQ(failure.attempts, 1u);  // no retries into a blown budget
  }
  EXPECT_EQ(summary.resilience.deadline_failures, runs.size());
  EXPECT_EQ(summary.resilience.retries, 0u);
}

TEST_F(CampaignResilienceFixture, CallerTokenCancelsTheCampaign) {
  util::CancellationToken token;
  token.cancel("user interrupt");
  ValidationConfig config;
  config.cancel = &token;
  const std::vector<CampaignRun> runs = {healthy_run(8)};
  const CampaignSummary summary =
      run_validation_campaign(model, engine, runs, config, 1);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_NE(summary.failures[0].error.find("user interrupt"),
            std::string::npos);
}

TEST_F(CampaignResilienceFixture, FingerprintSeparatesScenariosAndLabels) {
  const CampaignRun a = healthy_run(8);
  const CampaignRun b = healthy_run(16);
  const ValidationConfig config;
  EXPECT_NE(scenario_fingerprint("t", a, config),
            scenario_fingerprint("t", b, config));
  EXPECT_NE(scenario_fingerprint("table5", a, config),
            scenario_fingerprint("table6", a, config));
  ValidationConfig other_seed = config;
  other_seed.noise_seed ^= 1;
  EXPECT_NE(scenario_fingerprint("t", a, config),
            scenario_fingerprint("t", a, other_seed));
  // A per-run fault plan changes the measured value, so the fingerprint.
  CampaignRun faulty = a;
  fault::MessageFaultModel lossy;
  lossy.drop_probability = 0.5;
  faulty.faults.message_faults.push_back(lossy);
  EXPECT_NE(scenario_fingerprint("t", a, config),
            scenario_fingerprint("t", faulty, config));
}

TEST(CampaignFingerprint, PinnedValuesSurviveRebuilds) {
  // Journals are keyed by these values: a build that hashes a scenario
  // differently no longer resumes the journals earlier builds wrote.
  const ValidationConfig config;
  EXPECT_EQ(scenario_fingerprint("table5_meshspecific", table5_runs()[0],
                                 config),
            0x4ff689502d60e650ull);
  EXPECT_EQ(scenario_fingerprint("table6_general", table6_runs()[0], config),
            0xd22500ff6e68b99bull);
}

TEST(CampaignFingerprint, SeparatesPlansThatAgreeToSixDigits) {
  // Two delays that print alike at six significant digits are two
  // plans: a journal written under one must not resume the other.
  const ValidationConfig config;
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.001;
  CampaignRun a = table5_runs()[0];
  a.faults.delays.push_back(delay);
  CampaignRun b = table5_runs()[0];
  delay.seconds = 0.0010000004;
  b.faults.delays.push_back(delay);
  EXPECT_NE(scenario_fingerprint("table5_meshspecific", a, config),
            scenario_fingerprint("table5_meshspecific", b, config));
}

}  // namespace
}  // namespace krak::core
