// Fault-plan behavior of the full SimKrak replay (docs/RESILIENCE.md):
// the empty-plan bit-identity contract, delay propagation through the
// reduction-fenced iteration, crash recovery accounting, and the
// structured failures a hang-inducing plan produces.

#include <gtest/gtest.h>

#include <cmath>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

struct Fixture {
  mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  network::MachineConfig machine = network::make_es45_qsnet();
  ComputationCostEngine engine;

  [[nodiscard]] partition::Partition partition(std::int32_t pes) const {
    return partition::partition_deck(
        deck, pes, partition::PartitionMethod::kMultilevel, 1);
  }

  [[nodiscard]] SimKrakResult run(std::int32_t pes,
                                  const SimKrakOptions& options) const {
    const SimKrak app(deck, partition(pes), machine, engine, options);
    return app.run();
  }
};

SimKrakOptions quiet_options() {
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;  // bit-identity needs a noise-free baseline
  return options;
}

TEST(SimKrakFaults, EmptyPlanIsBitIdenticalToNoPlan) {
  const Fixture f;
  const SimKrakOptions options = quiet_options();
  SimKrakOptions with_empty_plan = options;
  with_empty_plan.faults = fault::FaultPlan{};  // explicit empty plan

  const SimKrakResult a = f.run(8, options);
  const SimKrakResult b = f.run(8, with_empty_plan);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.time_per_iteration, b.time_per_iteration);
  ASSERT_EQ(a.rank_breakdown.size(), b.rank_breakdown.size());
  for (std::size_t r = 0; r < a.rank_breakdown.size(); ++r) {
    EXPECT_EQ(a.rank_breakdown[r].compute, b.rank_breakdown[r].compute);
    EXPECT_EQ(a.rank_breakdown[r].total_seconds(),
              b.rank_breakdown[r].total_seconds());
  }
  EXPECT_EQ(b.fault_stats.injections, 0);
  EXPECT_FALSE(b.failed());
}

TEST(SimKrakFaults, OneOffDelayPropagatesWithExactIdentity) {
  const Fixture f;
  const SimKrakOptions baseline_options = quiet_options();
  const SimKrakResult baseline = f.run(8, baseline_options);

  SimKrakOptions faulted_options = baseline_options;
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.05;
  faulted_options.faults.delays.push_back(delay);
  const SimKrakResult faulted = f.run(8, faulted_options);

  ASSERT_FALSE(faulted.failed());
  // Exactly the injected delay was charged, to the victim rank alone.
  EXPECT_DOUBLE_EQ(faulted.fault_stats.fault_delay_seconds, 0.05);
  EXPECT_DOUBLE_EQ(faulted.rank_breakdown[0].fault_delay, 0.05);
  for (std::size_t r = 1; r < faulted.rank_breakdown.size(); ++r) {
    EXPECT_DOUBLE_EQ(faulted.rank_breakdown[r].fault_delay, 0.0);
  }
  // With every phase fenced by a reduction the delay propagates into
  // the makespan (near-zero absorption), and never more than itself.
  const double propagated = faulted.total_time - baseline.total_time;
  EXPECT_GT(propagated, 0.04);
  EXPECT_LE(propagated, 0.05 * (1.0 + 1e-9));
  // Every phase ends in an allreduce, so every rank finishes at the
  // makespan, and its components — the injected delay included — add up
  // to it to round-off in both runs.
  for (const SimKrakResult* result : {&baseline, &faulted}) {
    for (const sim::RankTimeBreakdown& rank : result->rank_breakdown) {
      EXPECT_NEAR(rank.total_seconds(), result->total_time,
                  1e-12 * result->total_time);
    }
  }
}

TEST(SimKrakFaults, CrashChargesRecoveryOnce) {
  const Fixture f;
  SimKrakOptions options = quiet_options();
  fault::RankCrash crash;
  crash.rank = 2;
  crash.phase = 5;
  crash.iteration = 0;
  crash.restart_s = 0.02;
  crash.checkpoint_interval_s = 0.01;
  options.faults.crashes.push_back(crash);
  const SimKrakResult result = f.run(8, options);

  ASSERT_FALSE(result.failed());
  // Daly accounting: restart + interval/2, on the crashed rank only.
  EXPECT_DOUBLE_EQ(result.fault_stats.recovery_seconds, 0.02 + 0.005);
  EXPECT_DOUBLE_EQ(result.rank_breakdown[2].recovery, 0.025);
  EXPECT_DOUBLE_EQ(result.rank_breakdown[0].recovery, 0.0);
}

TEST(SimKrakFaults, SameSeedAndPlanAreBitIdentical) {
  const Fixture f;
  SimKrakOptions options = quiet_options();
  options.faults.seed = 99;
  fault::MessageFaultModel model;
  model.drop_probability = 0.2;
  model.retransmit_timeout_s = 1e-5;
  model.max_retries = 20;
  options.faults.message_faults.push_back(model);
  options.faults.slowdowns.push_back({fault::kAllRanks, 1.05});

  const SimKrakResult a = f.run(8, options);
  const SimKrakResult b = f.run(8, options);
  ASSERT_FALSE(a.failed());
  EXPECT_GT(a.fault_stats.injections, 0);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.fault_stats.retransmits, b.fault_stats.retransmits);
  EXPECT_EQ(a.fault_stats.fault_delay_seconds, b.fault_stats.fault_delay_seconds);
  for (std::size_t r = 0; r < a.rank_breakdown.size(); ++r) {
    EXPECT_EQ(a.rank_breakdown[r].total_seconds(),
              b.rank_breakdown[r].total_seconds());
    EXPECT_EQ(a.rank_breakdown[r].fault_delay,
              b.rank_breakdown[r].fault_delay);
  }
}

TEST(SimKrakFaults, HangInducingPlanReturnsStructuredFailures) {
  const Fixture f;
  SimKrakOptions options = quiet_options();
  options.iterations = 1;
  fault::MessageFaultModel model;
  model.drop_probability = 0.9;
  model.max_retries = 0;  // nearly every message is lost for good
  options.faults.message_faults.push_back(model);
  const SimKrakResult result = f.run(8, options);

  ASSERT_TRUE(result.failed());
  EXPECT_GT(result.fault_stats.messages_lost, 0);
  // Some starved receiver must carry the lost-message diagnosis (other
  // ranks may be reported as deadlocked in the collectives behind it).
  bool saw_lost_message = false;
  for (const sim::SimFailure& failure : result.failures) {
    EXPECT_GE(failure.rank, 0);
    EXPECT_FALSE(failure.to_string().empty());
    if (failure.kind == sim::SimFailure::Kind::kLostMessage) {
      saw_lost_message = true;
    }
  }
  EXPECT_TRUE(saw_lost_message);
}

}  // namespace
}  // namespace krak::simapp
