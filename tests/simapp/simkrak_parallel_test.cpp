// SimKrak-level bit-identity of the conservative parallel simulation
// engine (SimKrakOptions::sim_threads): the full validation workload —
// the 15-phase iteration with noise, the hierarchical network, and
// fault plans — must produce exactly the same SimKrakResult at every
// thread count. This mirrors the partitioner's determinism suite and
// runs under TSan in CI (tsan-determinism job). It also pins the
// collective identity: each rank's collective cost is the model's
// Eqs. 8-10 term.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/collectives.hpp"
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

void expect_identical(const SimKrakResult& oracle,
                      const SimKrakResult& parallel) {
  EXPECT_EQ(oracle.total_time, parallel.total_time);
  EXPECT_EQ(oracle.time_per_iteration, parallel.time_per_iteration);
  for (std::size_t p = 0; p < oracle.phase_times.size(); ++p) {
    EXPECT_EQ(oracle.phase_times[p], parallel.phase_times[p]) << "phase " << p;
  }
  EXPECT_EQ(oracle.totals.compute, parallel.totals.compute);
  EXPECT_EQ(oracle.totals.p2p_seconds(), parallel.totals.p2p_seconds());
  EXPECT_EQ(oracle.totals.collective_seconds(),
            parallel.totals.collective_seconds());
  EXPECT_EQ(oracle.totals.fault_seconds(), parallel.totals.fault_seconds());
  ASSERT_EQ(oracle.rank_breakdown.size(), parallel.rank_breakdown.size());
  for (std::size_t r = 0; r < oracle.rank_breakdown.size(); ++r) {
    EXPECT_EQ(oracle.rank_breakdown[r].total_seconds(),
              parallel.rank_breakdown[r].total_seconds())
        << "rank " << r;
    EXPECT_EQ(oracle.rank_breakdown[r].compute,
              parallel.rank_breakdown[r].compute)
        << "rank " << r;
  }
  EXPECT_EQ(oracle.traffic.point_to_point_messages,
            parallel.traffic.point_to_point_messages);
  EXPECT_EQ(oracle.traffic.point_to_point_bytes,
            parallel.traffic.point_to_point_bytes);
  EXPECT_EQ(oracle.traffic.allreduces, parallel.traffic.allreduces);
  EXPECT_EQ(oracle.traffic.broadcasts, parallel.traffic.broadcasts);
  EXPECT_EQ(oracle.traffic.gathers, parallel.traffic.gathers);
  EXPECT_EQ(oracle.fault_stats.injections, parallel.fault_stats.injections);
  EXPECT_EQ(oracle.fault_stats.retransmits, parallel.fault_stats.retransmits);
  EXPECT_EQ(oracle.fault_stats.messages_lost,
            parallel.fault_stats.messages_lost);
  EXPECT_EQ(oracle.fault_stats.fault_delay_seconds,
            parallel.fault_stats.fault_delay_seconds);
  EXPECT_EQ(oracle.fault_stats.recovery_seconds,
            parallel.fault_stats.recovery_seconds);
  ASSERT_EQ(oracle.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < oracle.failures.size(); ++i) {
    EXPECT_EQ(oracle.failures[i].to_string(), parallel.failures[i].to_string());
  }
}

TEST(SimKrakParallel, NoisyIterationIdenticalAcrossThreadCounts) {
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;  // noise on: the production configuration
  const SimKrakResult reference = f.run(16, options);
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(16, parallel));
  }
}

TEST(SimKrakParallel, HierarchicalNetworkIdenticalAcrossThreadCounts) {
  // The devirtualized hierarchical network plus node-aligned sharding:
  // cross-shard messages are exactly the inter-node ones.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.hierarchical_network = true;
  const SimKrakResult reference = f.run(16, options);
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(16, parallel));
  }
}

TEST(SimKrakParallel, FaultPlanIdenticalAcrossThreadCounts) {
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;
  options.faults.seed = 99;
  options.faults.slowdowns.push_back({fault::kAllRanks, 1.05});
  fault::OneOffDelay delay;
  delay.rank = 3;
  delay.phase = 4;
  delay.iteration = 1;
  delay.seconds = 2e-3;
  options.faults.delays.push_back(delay);
  fault::MessageFaultModel flaky;
  flaky.rank = 2;
  flaky.drop_probability = 0.4;
  flaky.retransmit_timeout_s = 5e-5;
  flaky.max_retries = 3;
  options.faults.message_faults.push_back(flaky);

  const SimKrakResult reference = f.run(16, options);
  EXPECT_GT(reference.fault_stats.injections, 0);
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(16, parallel));
  }
}

TEST(SimKrakParallel, HangingFaultPlanFailuresIdenticalAcrossThreadCounts) {
  // A plan that drops every message from one rank with no retries: the
  // peers waiting on it hang, the simulator returns them as structured
  // failures, and those must propagate out of worker shards in the same
  // canonical order as the oracle's.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 1;
  options.enable_noise = false;
  fault::MessageFaultModel mute;
  mute.rank = 1;
  mute.drop_probability = 0.999999;  // effectively always dropped
  mute.max_retries = 0;
  options.faults.message_faults.push_back(mute);
  options.faults.max_sim_seconds = 5.0;

  const SimKrakResult reference = f.run(8, options);
  ASSERT_TRUE(reference.failed());
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(8, parallel));
  }
}

TEST(SimKrakParallel, TimeBoundReturnsTimeLimitFailuresAcrossThreadCounts) {
  // The plan's max_sim_seconds bounds SimKrak's simulation: a tenfold
  // slowdown pushes the ranks past a bound set at the unslowed run's
  // total time, and SimKrak::run returns the trips (and the ranks they
  // left waiting) as failures instead of throwing.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;
  const double unslowed = f.run(8, options).total_time;
  options.faults.slowdowns.push_back({fault::kAllRanks, 10.0});
  options.faults.max_sim_seconds = unslowed;

  const SimKrakResult reference = f.run(8, options);
  ASSERT_TRUE(reference.failed());
  const auto trips = std::count_if(
      reference.failures.begin(), reference.failures.end(),
      [](const sim::SimFailure& failure) {
        return failure.kind == sim::SimFailure::Kind::kTimeLimit;
      });
  EXPECT_GT(trips, 0);
  for (const sim::SimFailure& failure : reference.failures) {
    if (failure.kind != sim::SimFailure::Kind::kTimeLimit) continue;
    EXPECT_NE(failure.to_string().find("simulated-time bound"),
              std::string::npos)
        << failure.to_string();
  }
  SimKrakOptions parallel = options;
  parallel.sim_threads = 8;
  expect_identical(reference, f.run(8, parallel));
}

TEST(SimKrakParallel, NicContentionIdenticalAcrossThreadCounts) {
  // Shards align to NIC node boundaries, so adapter-availability state
  // is shard-local and the engine runs genuinely parallel — no oracle
  // fallback — while replaying the oracle bit-exactly.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.nic_contention = true;
  const SimKrakResult reference = f.run(16, options);
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(16, parallel));
  }
}

TEST(SimKrakParallel, NicWithHierarchicalNetworkIdenticalAcrossThreadCounts) {
  // The full production stack at once: two-level message costs,
  // shared-NIC injection serialization, and noise. The shard unit is
  // the lcm of the placement's and the NIC's node widths.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  options.hierarchical_network = true;
  options.nic_contention = true;
  const SimKrakResult reference = f.run(16, options);
  for (std::int32_t threads : {2, 8}) {
    SimKrakOptions parallel = options;
    parallel.sim_threads = threads;
    expect_identical(reference, f.run(16, parallel));
  }
}

TEST(SimKrakParallel, CollectiveCostIsEquationsEightToTen) {
  // The collective identity: with noise off, every rank of a one-
  // iteration run pays exactly Table 4's 29 collectives at their tree
  // cost, which is the model's Eqs. 8-10 term, in both engines, on the
  // flat network and under the hierarchical network with NIC contention
  // (collectives keep the flat model's tree costs there). Only the
  // summation order differs, hence the 1e-14 relative bound.
  const network::MachineConfig machine = network::make_es45_qsnet();
  const network::CollectiveModel model(machine.network);
  const ComputationCostEngine engine;
  for (const mesh::DeckSize size :
       {mesh::DeckSize::kSmall, mesh::DeckSize::kMedium}) {
    const mesh::InputDeck deck = mesh::make_standard_deck(size);
    for (const std::int32_t pes : {1, 2, 16, 128, 1024}) {
      const partition::Partition partition = partition::partition_deck(
          deck, pes, partition::PartitionMethod::kRcb);
      const double expected = model.iteration_collectives(pes);
      for (const bool full_stack : {false, true}) {
        for (const std::int32_t threads : {1, 8}) {
          SimKrakOptions options;
          options.enable_noise = false;
          options.hierarchical_network = full_stack;
          options.nic_contention = full_stack;
          options.sim_threads = threads;
          const SimKrakResult result =
              SimKrak(deck, partition, machine, engine, options).run();
          const std::string where =
              std::string(mesh::deck_size_name(size)) + " P=" +
              std::to_string(pes) + (full_stack ? " hierarchical+NIC" : "") +
              " threads=" + std::to_string(threads);
          EXPECT_EQ(result.traffic.broadcasts, 6) << where;
          EXPECT_EQ(result.traffic.allreduces, 22) << where;
          EXPECT_EQ(result.traffic.gathers, 1) << where;
          ASSERT_EQ(result.rank_breakdown.size(),
                    static_cast<std::size_t>(pes))
              << where;
          double worst = 0.0;
          for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
            worst = std::max(worst, std::abs(rank.collective_cost - expected));
          }
          EXPECT_LE(worst, 1e-14 * expected) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace krak::simapp
