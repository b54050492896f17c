#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace krak::fault {
namespace {

constexpr std::int32_t kPhases = 15;  // SimKrak's Table 1 phase count

TEST(InjectionEngine, RejectsOutOfRangePlanValues) {
  FaultPlan bad_factor;
  bad_factor.slowdowns.push_back({0, 0.5});  // factor must be >= 1
  EXPECT_THROW(InjectionEngine(bad_factor, 4, kPhases), util::KrakError);

  FaultPlan bad_rank;
  bad_rank.slowdowns.push_back({7, 2.0});  // only 4 ranks
  EXPECT_THROW(InjectionEngine(bad_rank, 4, kPhases), util::KrakError);

  FaultPlan bad_drop;
  MessageFaultModel model;
  model.drop_probability = 1.5;
  bad_drop.message_faults.push_back(model);
  EXPECT_THROW(InjectionEngine(bad_drop, 4, kPhases), util::KrakError);

  FaultPlan bad_bandwidth;
  bad_bandwidth.degrades.push_back({0, 2.0});  // must be in (0, 1]
  EXPECT_THROW(InjectionEngine(bad_bandwidth, 4, kPhases), util::KrakError);

  FaultPlan bad_phase;
  OneOffDelay delay;
  delay.rank = 0;
  delay.phase = kPhases + 1;
  bad_phase.delays.push_back(delay);
  EXPECT_THROW(InjectionEngine(bad_phase, 4, kPhases), util::KrakError);

  FaultPlan wildcard_crash;
  RankCrash crash;
  crash.rank = kAllRanks;  // crashes must name one rank
  wildcard_crash.crashes.push_back(crash);
  EXPECT_THROW(InjectionEngine(wildcard_crash, 4, kPhases), util::KrakError);
}

TEST(InjectionEngine, ErrorNamesTheFirstViolation) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0});
  plan.degrades.push_back({0, 2.0});  // bandwidth must be in (0, 1]
  RankCrash crash;
  crash.rank = 9;  // only 4 ranks
  plan.crashes.push_back(crash);
  try {
    const InjectionEngine engine(plan, 4, kPhases);
    FAIL() << "expected KrakError";
  } catch (const util::KrakError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("faults/degrade 0: bandwidth factor must be in (0, 1]"),
              std::string::npos)
        << what;
  }
}

TEST(InjectionEngine, SlowdownScalesComputeExcess) {
  FaultPlan plan;
  plan.slowdowns.push_back({1, 1.5});
  InjectionEngine engine(plan, 2, kPhases);
  engine.on_run_start(2);
  // Slowed rank: 50% excess; healthy rank: none.
  EXPECT_DOUBLE_EQ(engine.compute_delay(1, 0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(engine.compute_delay(0, 0, 2.0), 0.0);
}

TEST(InjectionEngine, OneOffDelayFiresAtExactComputeIndex) {
  FaultPlan plan;
  OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.25;
  plan.delays.push_back(delay);
  InjectionEngine engine(plan, 2, kPhases);
  engine.on_run_start(2);
  const std::int64_t target = 1 * kPhases + (3 - 1);
  EXPECT_DOUBLE_EQ(engine.compute_delay(0, target, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(engine.compute_delay(0, target - 1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(engine.compute_delay(0, target + 1, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(engine.compute_delay(1, target, 1.0), 0.0);
}

TEST(InjectionEngine, NoiseBurstsCountPeriodCrossings) {
  FaultPlan plan;
  NoiseBurst burst;
  burst.rank = 0;
  burst.period_s = 1.0;
  burst.duration_s = 0.01;
  plan.noise.push_back(burst);
  InjectionEngine engine(plan, 1, kPhases);
  engine.on_run_start(1);
  // 10 seconds of compute cross 10 period boundaries regardless of the
  // seeded phase offset, so exactly 10 bursts fire.
  const double extra = engine.compute_delay(0, 0, 10.0);
  EXPECT_NEAR(extra, 10 * 0.01, 1e-12);
  // on_run_start rewinds the accumulator: the next run sees the same
  // injections, not a continuation.
  engine.on_run_start(1);
  EXPECT_DOUBLE_EQ(engine.compute_delay(0, 0, 10.0), extra);
}

TEST(InjectionEngine, RecoveryChargesDalyCost) {
  FaultPlan plan;
  RankCrash crash;
  crash.rank = 0;
  crash.phase = 1;
  crash.iteration = 0;
  crash.restart_s = 2.0;
  crash.checkpoint_interval_s = 4.0;
  plan.crashes.push_back(crash);
  InjectionEngine engine(plan, 2, kPhases);
  engine.on_run_start(2);
  // restart + interval/2, independent of the clock.
  EXPECT_DOUBLE_EQ(engine.recovery_delay(0, 0, 100.0), 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(engine.recovery_delay(0, 1, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(engine.recovery_delay(1, 0, 100.0), 0.0);
}

TEST(InjectionEngine, RecoveryWithoutCheckpointsReplaysElapsed) {
  FaultPlan plan;
  RankCrash crash;
  crash.rank = 0;
  crash.restart_s = 1.0;
  crash.checkpoint_interval_s = 0.0;
  plan.crashes.push_back(crash);
  InjectionEngine engine(plan, 1, kPhases);
  engine.on_run_start(1);
  EXPECT_DOUBLE_EQ(engine.recovery_delay(0, 0, 7.5), 1.0 + 7.5);
}

TEST(InjectionEngine, MessageFateIsDeterministicInSeedAndOrdinal) {
  FaultPlan plan;
  plan.seed = 123;
  MessageFaultModel model;
  model.drop_probability = 0.5;
  model.retransmit_timeout_s = 1e-3;
  model.max_retries = 10;
  plan.message_faults.push_back(model);

  InjectionEngine a(plan, 4, kPhases);
  InjectionEngine b(plan, 4, kPhases);
  a.on_run_start(4);
  b.on_run_start(4);
  // Query b in reverse: fates are keyed by (seed, sender, ordinal), so
  // call order — i.e. event interleaving — must not matter.
  std::vector<sim::FaultInjector::MessageFate> forward;
  for (std::int64_t send = 0; send < 64; ++send) {
    forward.push_back(a.message_fate(1, 2, 1000.0, send));
  }
  for (std::int64_t send = 63; send >= 0; --send) {
    const auto fate = b.message_fate(1, 2, 1000.0, send);
    const auto& expected = forward[static_cast<std::size_t>(send)];
    EXPECT_DOUBLE_EQ(fate.extra_delay, expected.extra_delay);
    EXPECT_EQ(fate.retransmits, expected.retransmits);
    EXPECT_EQ(fate.lost, expected.lost);
  }
}

TEST(InjectionEngine, ExhaustedRetriesLoseTheMessage) {
  FaultPlan plan;
  MessageFaultModel model;
  model.drop_probability = 0.999999;  // effectively always dropped
  model.max_retries = 2;
  plan.message_faults.push_back(model);
  InjectionEngine engine(plan, 2, kPhases);
  engine.on_run_start(2);
  const auto fate = engine.message_fate(0, 1, 100.0, 0);
  EXPECT_TRUE(fate.lost);
  EXPECT_EQ(fate.retransmits, 2);
}

TEST(InjectionEngine, DegradeScalesWireTime) {
  FaultPlan plan;
  plan.degrades.push_back({0, 0.25});
  InjectionEngine engine(plan, 2, kPhases);
  engine.on_run_start(2);
  EXPECT_DOUBLE_EQ(engine.message_fate(0, 1, 100.0, 0).bandwidth_factor, 4.0);
  EXPECT_DOUBLE_EQ(engine.message_fate(1, 0, 100.0, 0).bandwidth_factor, 1.0);
}

TEST(InjectionEngine, RunStartRejectsMismatchedRankCount) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 2.0});
  InjectionEngine engine(plan, 4, kPhases);
  EXPECT_THROW(engine.on_run_start(8), util::KrakError);
}

}  // namespace
}  // namespace krak::fault
