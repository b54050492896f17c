#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace krak::fault {
namespace {

TEST(FaultPlan, DefaultPlanIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.size(), 0u);
}

FaultPlan make_full_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.slowdowns.push_back({2, 1.5});
  plan.noise.push_back({kAllRanks, 1e-3, 25e-6});
  OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 4;
  delay.iteration = 1;
  delay.seconds = 2e-3;
  plan.delays.push_back(delay);
  MessageFaultModel messages;
  messages.rank = kAllRanks;
  messages.drop_probability = 0.05;
  messages.extra_delay_s = 1e-6;
  messages.retransmit_timeout_s = 2e-4;
  messages.max_retries = 5;
  plan.message_faults.push_back(messages);
  plan.degrades.push_back({3, 0.25});
  RankCrash crash;
  crash.rank = 1;
  crash.phase = 9;
  crash.iteration = 0;
  crash.restart_s = 0.05;
  crash.checkpoint_interval_s = 0.4;
  plan.crashes.push_back(crash);
  plan.max_sim_seconds = 10.0;
  return plan;
}

TEST(FaultPlan, RoundTripPreservesEveryDirective) {
  const FaultPlan original = make_full_plan();
  std::stringstream stream;
  write_fault_plan(stream, original);
  const FaultPlan parsed = parse_fault_plan(stream);

  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.size(), original.size());
  ASSERT_EQ(parsed.slowdowns.size(), 1u);
  EXPECT_EQ(parsed.slowdowns[0].rank, 2);
  EXPECT_DOUBLE_EQ(parsed.slowdowns[0].factor, 1.5);
  ASSERT_EQ(parsed.noise.size(), 1u);
  EXPECT_EQ(parsed.noise[0].rank, kAllRanks);
  EXPECT_DOUBLE_EQ(parsed.noise[0].period_s, 1e-3);
  EXPECT_DOUBLE_EQ(parsed.noise[0].duration_s, 25e-6);
  ASSERT_EQ(parsed.delays.size(), 1u);
  EXPECT_EQ(parsed.delays[0].rank, 0);
  EXPECT_EQ(parsed.delays[0].phase, 4);
  EXPECT_EQ(parsed.delays[0].iteration, 1);
  EXPECT_DOUBLE_EQ(parsed.delays[0].seconds, 2e-3);
  ASSERT_EQ(parsed.message_faults.size(), 1u);
  EXPECT_EQ(parsed.message_faults[0].rank, kAllRanks);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].drop_probability, 0.05);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].extra_delay_s, 1e-6);
  EXPECT_DOUBLE_EQ(parsed.message_faults[0].retransmit_timeout_s, 2e-4);
  EXPECT_EQ(parsed.message_faults[0].max_retries, 5);
  ASSERT_EQ(parsed.degrades.size(), 1u);
  EXPECT_EQ(parsed.degrades[0].rank, 3);
  EXPECT_DOUBLE_EQ(parsed.degrades[0].bandwidth_factor, 0.25);
  ASSERT_EQ(parsed.crashes.size(), 1u);
  EXPECT_EQ(parsed.crashes[0].rank, 1);
  EXPECT_EQ(parsed.crashes[0].phase, 9);
  EXPECT_EQ(parsed.crashes[0].iteration, 0);
  EXPECT_DOUBLE_EQ(parsed.crashes[0].restart_s, 0.05);
  EXPECT_DOUBLE_EQ(parsed.crashes[0].checkpoint_interval_s, 0.4);
  EXPECT_DOUBLE_EQ(parsed.max_sim_seconds, 10.0);
}

TEST(FaultPlan, RoundTripIsExactBeyondSixDigits) {
  // 0.0010000004 prints as 0.001 at six significant digits; the written
  // plan must still load back to the very same doubles.
  FaultPlan original = make_full_plan();
  original.delays[0].seconds = 0.0010000004;
  original.slowdowns[0].factor = 1.0 / 3.0;
  original.max_sim_seconds = 0.1 + 0.2;
  const std::string path = ::testing::TempDir() + "/exact.krakfaults";
  save_fault_plan(path, original);
  const FaultPlan loaded = load_fault_plan(path);
  ASSERT_EQ(loaded.delays.size(), 1u);
  EXPECT_EQ(loaded.delays[0].seconds, 0.0010000004);
  ASSERT_EQ(loaded.slowdowns.size(), 1u);
  EXPECT_EQ(loaded.slowdowns[0].factor, 1.0 / 3.0);
  EXPECT_EQ(loaded.max_sim_seconds, 0.1 + 0.2);
}

TEST(FaultPlan, SixDigitValuesKeepTheirText) {
  // Values that survive six significant digits are written exactly as
  // before, so the fingerprints of existing journals stay valid.
  std::ostringstream out;
  write_fault_plan(out, make_full_plan());
  EXPECT_EQ(out.str(),
            "krakfaults 1\n"
            "seed 42\n"
            "slowdown rank=2 factor=1.5\n"
            "noise rank=* period=0.001 duration=2.5e-05\n"
            "delay rank=0 phase=4 iter=1 seconds=0.002\n"
            "messages rank=* drop=0.05 delay=1e-06 rto=0.0002 retries=5\n"
            "degrade rank=3 bandwidth=0.25\n"
            "crash rank=1 phase=9 iter=0 restart=0.05 interval=0.4\n"
            "watchdog max_seconds=10\n"
            "end\n");
}

TEST(FaultPlan, MessageDefaultsApplyWhenKeysOmitted) {
  std::istringstream in(
      "krakfaults 1\n"
      "messages rank=* drop=0.1\n"
      "end\n");
  const FaultPlan plan = parse_fault_plan(in);
  ASSERT_EQ(plan.message_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.message_faults[0].extra_delay_s, 0.0);
  EXPECT_DOUBLE_EQ(plan.message_faults[0].retransmit_timeout_s, 1e-4);
  EXPECT_EQ(plan.message_faults[0].max_retries, 3);
}

TEST(FaultPlan, CommentsAndBlankLinesAreIgnored) {
  std::istringstream in(
      "krakfaults 1\n"
      "# a comment\n"
      "\n"
      "seed 9\n"
      "slowdown rank=0 factor=2\n"
      "end\n"
      "\n"
      "# a trailing note\n");
  const FaultPlan plan = parse_fault_plan(in);
  EXPECT_EQ(plan.seed, 9u);
  ASSERT_EQ(plan.slowdowns.size(), 1u);
}

void expect_malformed(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)parse_fault_plan(in);
    FAIL() << "expected KrakError for:\n" << text;
  } catch (const util::KrakError& error) {
    EXPECT_NE(std::string(error.what()).find("malformed fault spec"),
              std::string::npos)
        << error.what();
  }
}

TEST(FaultPlan, ParseRejectsMalformedInput) {
  expect_malformed("krakfaults 2\nend\n");  // unsupported version
  expect_malformed("krakfaults 1\nteleport rank=0\nend\n");  // unknown directive
  expect_malformed("krakfaults 1\nslowdown factor=1.5\nend\n");  // missing rank
  expect_malformed(
      "krakfaults 1\nslowdown rank=0 rank=1 factor=2\nend\n");  // duplicate key
  expect_malformed(
      "krakfaults 1\nslowdown rank=0 factor=2 color=red\nend\n");  // unknown key
  expect_malformed("krakfaults 1\nslowdown rank=0 factor=2\n");  // missing end
  // Input the parser once dropped or changed without an error.
  expect_malformed(
      "krakfaults 1\nseed 7 slowdown rank=0 factor=2\nend\n");  // seed tail
  expect_malformed(
      "krakfaults 1\nend\nslowdown rank=0 factor=2\n");  // directive after end
  expect_malformed("krakfaults 1 extra\nend\n");  // header tail
  expect_malformed("krakfaults 1\nend extra\n");  // end tail
  expect_malformed("krakfaults 1\nseed -1\nend\n");  // negative seed
  expect_malformed(
      "krakfaults 1\nslowdown rank=4294967296 factor=2\nend\n");  // > 32 bits
  expect_malformed(
      "krakfaults 1\nmessages rank=* drop=0.1 retries=4294967296\nend\n");
}

TEST(FaultPlan, LoadNamesMissingPathAndCause) {
  const std::string path = "/nonexistent/dir/plan.krakfaults";
  try {
    (void)load_fault_plan(path);
    FAIL() << "expected KrakError";
  } catch (const util::KrakError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(FaultPlan, SaveAndLoadThroughDisk) {
  const std::string path = ::testing::TempDir() + "/roundtrip.krakfaults";
  const FaultPlan original = make_full_plan();
  save_fault_plan(path, original);
  const FaultPlan loaded = load_fault_plan(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.seed, original.seed);
}

TEST(DalyModel, OptimalIntervalMatchesFirstOrderFormula) {
  // sqrt(2 * C * M) with C = 5 s, M = 3600 s.
  EXPECT_NEAR(daly_optimal_interval(5.0, 3600.0), std::sqrt(36000.0), 1e-12);
}

TEST(DalyModel, RecoveryCostUsesHalfIntervalWhenCheckpointing) {
  EXPECT_DOUBLE_EQ(expected_recovery_cost(30.0, 200.0, 1800.0), 30.0 + 100.0);
}

TEST(DalyModel, RecoveryCostReplaysElapsedWithoutCheckpoints) {
  EXPECT_DOUBLE_EQ(expected_recovery_cost(30.0, 0.0, 1800.0), 30.0 + 1800.0);
}

}  // namespace
}  // namespace krak::fault
