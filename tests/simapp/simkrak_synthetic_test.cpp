// Oracle-identity determinism at synthetic scale: a generated deck
// spread over 20k+ ranks — far past the standard decks' PE range — must
// produce bit-identical results from the sharded engine with the full
// production stack on (hierarchical network, NIC contention, noise).
// This is the scaled-down twin of BENCH_PR9's large_100k replay
// (docs/PERFORMANCE.md, "The 100k-rank regime"); it stays outside the
// TSan determinism filters (SimulatorParallel*/SimKrakParallel*), which
// would be far too slow at this rank count.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>

#include "mesh/synthetic.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "result_digest.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

TEST(SimKrakSynthetic, TwentyThousandRankIdentityWithFullStack) {
  const std::int32_t ranks = 20'480;
  const mesh::InputDeck deck =
      mesh::make_synthetic_deck(mesh::paper_synthetic_spec(1024, 128));
  ASSERT_GE(deck.grid().num_cells(), 100'000);

  // RCB, not multilevel: at this part count the coarsening pipeline is
  // far slower than the simulation itself (the same choice the
  // large-deck bench scenarios make).
  const partition::Partition partition = partition::partition_deck(
      deck, ranks, partition::PartitionMethod::kRcb, /*seed=*/1);

  network::MachineConfig machine = network::make_es45_qsnet();
  machine.nodes = (ranks + machine.pes_per_node - 1) / machine.pes_per_node;

  const ComputationCostEngine engine;
  SimKrakOptions options;
  options.iterations = 1;
  options.hierarchical_network = true;
  options.nic_contention = true;

  const SimKrak serial_app(deck, partition, machine, engine, options);
  const SimKrakResult serial = serial_app.run();
  EXPECT_TRUE(serial.failures.empty());
  EXPECT_GT(serial.total_time, 0.0);
  // Pinned across commits (simkrak_pinned_test.cpp): one iteration with
  // the hierarchical network and NIC contention is the 100k-rank
  // replay's shape at a fifth of its rank count.
  const std::uint64_t digest = result_digest(serial);
  EXPECT_EQ(digest, 0x2d39c4ecaaba5a6full)
      << "digest 0x" << std::hex << digest;

  SimKrakOptions parallel_options = options;
  parallel_options.sim_threads = 8;
  const SimKrak parallel_app(deck, partition, machine, engine,
                             parallel_options);
  const SimKrakResult parallel = parallel_app.run();

  EXPECT_EQ(serial.total_time, parallel.total_time);
  EXPECT_EQ(serial.time_per_iteration, parallel.time_per_iteration);
  for (std::size_t p = 0; p < serial.phase_times.size(); ++p) {
    EXPECT_EQ(serial.phase_times[p], parallel.phase_times[p]) << "phase " << p;
  }
  EXPECT_EQ(serial.totals.compute, parallel.totals.compute);
  EXPECT_EQ(serial.totals.p2p_seconds(), parallel.totals.p2p_seconds());
  EXPECT_EQ(serial.totals.collective_seconds(),
            parallel.totals.collective_seconds());
  ASSERT_EQ(serial.rank_breakdown.size(), parallel.rank_breakdown.size());
  for (std::size_t r = 0; r < serial.rank_breakdown.size(); ++r) {
    if (serial.rank_breakdown[r].total_seconds() !=
        parallel.rank_breakdown[r].total_seconds()) {
      FAIL() << "rank " << r << " breakdown diverged";
    }
  }
  EXPECT_EQ(serial.traffic.point_to_point_messages,
            parallel.traffic.point_to_point_messages);
  EXPECT_EQ(serial.traffic.point_to_point_bytes,
            parallel.traffic.point_to_point_bytes);
  EXPECT_EQ(serial.traffic.allreduces, parallel.traffic.allreduces);
  EXPECT_EQ(serial.traffic.broadcasts, parallel.traffic.broadcasts);
  EXPECT_EQ(serial.traffic.gathers, parallel.traffic.gathers);
  EXPECT_EQ(serial.failures.size(), parallel.failures.size());
}

}  // namespace
}  // namespace krak::simapp
