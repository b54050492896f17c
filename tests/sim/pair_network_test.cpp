#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "network/msgmodel.hpp"
#include "network/topology.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"

namespace krak::sim {
namespace {

Simulator flat_simulator(Program& program) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  return Simulator(program, network::make_hockney_model(1.0, 1e30), config);
}

/// One rank per node, so every point-to-point message costs `inter`.
std::shared_ptr<const network::HierarchicalNetwork> one_rank_per_node(
    std::int32_t ranks, network::MessageCostModel inter) {
  return std::make_shared<network::HierarchicalNetwork>(
      network::MessageCostModel(), std::move(inter),
      network::Placement(ranks, 1));
}

TEST(PairNetwork, OverridesPointToPointCosts) {
  StoredProgram program({{Op::isend(1, 8.0, 1)}, {Op::recv(0, 8.0, 1)}});
  Simulator sim = flat_simulator(program);
  // Override: 8 bytes take 5 s on the wire, 0 s to hand off.
  sim.set_pair_network(
      one_rank_per_node(2, network::make_hockney_model(0.0, 1.6)));
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 5.0, 1e-12);
  EXPECT_NEAR(result.finish_times[0], 0.0, 1e-12);
}

TEST(PairNetwork, CollectivesStillUseFlatModel) {
  StoredProgram program({{Op::allreduce(8.0)}, {Op::allreduce(8.0)}});
  Simulator sim = flat_simulator(program);
  sim.set_pair_network(
      one_rank_per_node(2, network::make_hockney_model(100.0, 1e30)));
  const SimResult result = sim.run();
  // Flat model: 2 * depth(2) * 1 s = 2 s; the pair override must not
  // leak into the tree cost.
  EXPECT_NEAR(result.makespan, 2.0, 1e-12);
}

TEST(PairNetwork, CanBeCleared) {
  StoredProgram program({{Op::isend(1, 8.0, 1)}, {Op::recv(0, 8.0, 1)}});
  Simulator sim = flat_simulator(program);
  sim.set_pair_network(
      one_rank_per_node(2, network::make_hockney_model(50.0, 1e30)));
  sim.set_pair_network(nullptr);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 1.0, 1e-12);  // flat 1 s latency
}

TEST(PairNetwork, HierarchicalRanksSeeAsymmetricCosts) {
  // Ranks 0-3 on node 0, 4-7 on node 1.
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  // Rank 0 pings rank 1 (same node) and rank 4 (other node).
  StoredProgram program(8);
  program.set(0, {Op::isend(1, 1024.0, 1), Op::isend(4, 1024.0, 2)});
  program.set(1, {Op::recv(0, 1024.0, 1)});
  program.set(4, {Op::recv(0, 1024.0, 2)});
  Simulator sim(program, network::make_qsnet1_model(), config);
  sim.set_pair_network(std::make_shared<network::HierarchicalNetwork>(
      network::make_es45_shared_memory_model(), network::make_qsnet1_model(),
      network::Placement(8, 4)));
  const SimResult result = sim.run();
  EXPECT_LT(result.finish_times[1], result.finish_times[4]);
}

}  // namespace
}  // namespace krak::sim
