#include "simapp/simkrak.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "util/error.hpp"

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
};

TEST(SimKrak, RunsToCompletionWithoutDeadlock) {
  const Fixture f;
  const SimKrak app(f.deck, f.partition(16), f.machine, f.engine, {});
  const SimKrakResult result = app.run();
  EXPECT_GT(result.time_per_iteration, 0.0);
  EXPECT_EQ(result.ranks, 16);
}

TEST(SimKrak, CollectiveTrafficMatchesTable4PerIteration) {
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  const SimKrak app(f.deck, f.partition(8), f.machine, f.engine, options);
  const SimKrakResult result = app.run();
  // Table 4: per iteration 6 broadcasts (3 of 4B + 3 of 8B), 22
  // allreduces, 1 gather.
  EXPECT_EQ(result.traffic.broadcasts, 2 * 6);
  EXPECT_EQ(result.traffic.allreduces, 2 * 22);
  EXPECT_EQ(result.traffic.gathers, 2 * 1);
}

TEST(SimKrak, PhaseTimesSumToIterationTime) {
  const Fixture f;
  const SimKrak app(f.deck, f.partition(16), f.machine, f.engine, {});
  const SimKrakResult result = app.run();
  const double phase_sum = std::accumulate(result.phase_times.begin(),
                                           result.phase_times.end(), 0.0);
  EXPECT_NEAR(phase_sum, result.time_per_iteration,
              1e-9 * result.time_per_iteration);
}

TEST(SimKrak, BreakdownTotalsAreConsistent) {
  const Fixture f;
  const SimKrak app(f.deck, f.partition(8), f.machine, f.engine, {});
  const SimKrakResult result = app.run();

  // Per-rank decompositions exist for every rank, sum to the rank's
  // finish time (bounded by the makespan), and their sum is the totals.
  ASSERT_EQ(result.rank_breakdown.size(), 8u);
  sim::RankTimeBreakdown expected;
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    EXPECT_GT(rank.total_seconds(), 0.0);
    EXPECT_LE(rank.total_seconds(), result.total_time * (1.0 + 1e-9));
    expected.compute += rank.compute;
    expected.send_overhead += rank.send_overhead;
    expected.recv_overhead += rank.recv_overhead;
    expected.send_wait += rank.send_wait;
    expected.recv_wait += rank.recv_wait;
    expected.collective_wait += rank.collective_wait;
    expected.collective_cost += rank.collective_cost;
  }
  EXPECT_DOUBLE_EQ(result.totals.total_seconds(), expected.total_seconds());
  EXPECT_DOUBLE_EQ(result.totals.compute, expected.compute);
  EXPECT_DOUBLE_EQ(result.totals.collective_cost, expected.collective_cost);

  // The Krak iteration computes, exchanges boundaries, and synchronizes
  // on collectives every phase — all three phase buckets must be live.
  EXPECT_GT(result.totals.compute, 0.0);
  EXPECT_GT(result.totals.p2p_seconds(), 0.0);
  EXPECT_GT(result.totals.collective_seconds(), 0.0);
  EXPECT_GT(result.max_queue_depth, 0u);
}

TEST(SimKrak, DeterministicForFixedSeed) {
  const Fixture f;
  const partition::Partition part = f.partition(8);
  SimKrakOptions options;
  options.noise_seed = 77;
  const SimKrak a(f.deck, part, f.machine, f.engine, options);
  const SimKrak b(f.deck, part, f.machine, f.engine, options);
  EXPECT_DOUBLE_EQ(a.run().time_per_iteration, b.run().time_per_iteration);
}

TEST(SimKrak, DifferentSeedsJitterWithinNoiseBand) {
  const Fixture f;
  const partition::Partition part = f.partition(8);
  SimKrakOptions a_options;
  a_options.noise_seed = 1;
  SimKrakOptions b_options;
  b_options.noise_seed = 2;
  const double a =
      SimKrak(f.deck, part, f.machine, f.engine, a_options).run().time_per_iteration;
  const double b =
      SimKrak(f.deck, part, f.machine, f.engine, b_options).run().time_per_iteration;
  EXPECT_NE(a, b);
  EXPECT_NEAR(a / b, 1.0, 0.1);
}

TEST(SimKrak, NoiseDisabledGivesGroundTruthComputation) {
  const Fixture f;
  const partition::Partition part = f.partition(4);
  SimKrakOptions options;
  options.enable_noise = false;
  const SimKrak app(f.deck, part, f.machine, f.engine, options);
  const SimKrakResult with_a = app.run();
  const SimKrakResult with_b = app.run();
  EXPECT_DOUBLE_EQ(with_a.time_per_iteration, with_b.time_per_iteration);
}

TEST(SimKrak, SingleProcessorHasNoPointToPointTraffic) {
  const Fixture f;
  const partition::Partition part(1, std::vector<partition::PeId>(3200, 0));
  const SimKrak app(f.deck, part, f.machine, f.engine, {});
  const SimKrakResult result = app.run();
  EXPECT_EQ(result.traffic.point_to_point_messages, 0);
  EXPECT_GT(result.time_per_iteration, 0.0);
}

TEST(SimKrak, StrongScalingReducesIterationTime) {
  const Fixture f;
  const mesh::InputDeck medium = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  SimKrakOptions options;
  options.noise_seed = 1;
  double previous = 1e9;
  for (std::int32_t pes : {8, 32, 128}) {
    const partition::Partition part = partition::partition_deck(
        medium, pes, partition::PartitionMethod::kMultilevel, 1);
    const double t = SimKrak(medium, part, f.machine, f.engine, options)
                         .run()
                         .time_per_iteration;
    EXPECT_LT(t, previous) << "pes " << pes;
    previous = t;
  }
}

TEST(SimKrak, MoreIterationsScaleTotalTime) {
  const Fixture f;
  const partition::Partition part = f.partition(8);
  SimKrakOptions one;
  one.iterations = 1;
  SimKrakOptions three;
  three.iterations = 3;
  const double t1 = SimKrak(f.deck, part, f.machine, f.engine, one).run().total_time;
  const double t3 =
      SimKrak(f.deck, part, f.machine, f.engine, three).run().total_time;
  EXPECT_NEAR(t3 / t1, 3.0, 0.1);
}

TEST(SimKrak, FasterMachineRunsFaster) {
  const Fixture f;
  const partition::Partition part = f.partition(16);
  const double base =
      SimKrak(f.deck, part, f.machine, f.engine, {}).run().time_per_iteration;
  const network::MachineConfig upgrade = network::make_hypothetical_upgrade();
  const double fast =
      SimKrak(f.deck, part, upgrade, f.engine, {}).run().time_per_iteration;
  EXPECT_LT(fast, base);
  EXPECT_GT(fast, base / 3.0);  // bounded by the 2x compute / 2x net gains
}

TEST(SimKrak, BoundaryExchangeMessageCountMatchesStats) {
  // Phase 2 sends 6 messages per material group present on a boundary
  // plus 6 for the final step, in each direction; phases 4, 5, 7 add one
  // message per direction per boundary each.
  const Fixture f;
  const partition::Partition part = f.partition(4);
  const SimKrak app(f.deck, part, f.machine, f.engine, {});
  const SimKrakResult result = app.run();

  std::int64_t expected = 0;
  for (const partition::SubdomainInfo& sub : app.stats().subdomains()) {
    for (const partition::NeighborBoundary& boundary : sub.neighbors) {
      std::int64_t steps = 1;  // final all-materials step
      for (std::int64_t faces : boundary.faces_per_group) {
        if (faces > 0) ++steps;
      }
      expected += steps * kBoundaryMessagesPerStep;  // phase 2 sends
      expected += 3;                                 // ghost updates 4, 5, 7
    }
  }
  EXPECT_EQ(result.traffic.point_to_point_messages, expected);
}

TEST(SimKrak, RejectsBadOptions) {
  const Fixture f;
  const partition::Partition part = f.partition(4);
  SimKrakOptions options;
  options.iterations = 0;
  EXPECT_THROW(SimKrak(f.deck, part, f.machine, f.engine, options),
               util::InvalidArgument);
}

TEST(SimKrak, RejectsPartitionLargerThanMachine) {
  const Fixture f;
  network::MachineConfig tiny = f.machine;
  tiny.nodes = 1;
  tiny.pes_per_node = 2;
  const partition::Partition part = f.partition(4);
  EXPECT_THROW(SimKrak(f.deck, part, tiny, f.engine, {}),
               util::InvalidArgument);
}

}  // namespace
}  // namespace krak::simapp
