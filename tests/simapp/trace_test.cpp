#include "simapp/trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/comm_model.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "network/msgmodel.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"
#include "util/piecewise.hpp"

namespace krak::simapp {
namespace {

/// The inventory of the small deck multilevel-partitioned over `pes`.
MessageInventory small_inventory(std::int32_t pes) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const network::MachineConfig machine = network::make_es45_qsnet();
  const ComputationCostEngine engine;
  const SimKrak app(deck,
                    partition::partition_deck(
                        deck, pes, partition::PartitionMethod::kMultilevel, 1),
                    machine, engine, {});
  return compute_message_inventory(app);
}

TEST(MessageInventory, EmptyForSingleProcessor) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part(1, std::vector<partition::PeId>(3200, 0));
  const network::MachineConfig machine = network::make_es45_qsnet();
  const ComputationCostEngine engine;
  const MessageInventory inventory =
      compute_message_inventory(SimKrak(deck, part, machine, engine, {}));
  EXPECT_EQ(inventory.total_messages(), 0);
  EXPECT_DOUBLE_EQ(inventory.total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(inventory.mean_message_bytes(), 0.0);
}

TEST(MessageInventory, MatchesSimulatedTraffic) {
  // The inventory counts exactly the messages one simulated iteration
  // sends, so a run of two iterations sends it twice: a fold that
  // walked past the first iteration would count the second too.
  const auto& machine = network::make_es45_qsnet();
  const ComputationCostEngine engine;
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 12, partition::PartitionMethod::kMultilevel, 3);
  for (const std::int32_t iterations : {1, 2}) {
    SimKrakOptions options;
    options.iterations = iterations;
    const SimKrak app(deck, part, machine, engine, options);
    const SimKrakResult result = app.run();
    const MessageInventory inventory = compute_message_inventory(app);
    EXPECT_EQ(iterations * inventory.total_messages(),
              result.traffic.point_to_point_messages)
        << iterations << " iteration(s)";
    EXPECT_NEAR(iterations * inventory.total_bytes(),
                result.traffic.point_to_point_bytes, 1e-6)
        << iterations << " iteration(s)";
  }
}

TEST(MessageInventory, OnlyCommPhasesHaveTraffic) {
  const MessageInventory inventory = small_inventory(8);
  for (std::int32_t phase = 1; phase <= kPhaseCount; ++phase) {
    const auto& traffic =
        inventory.per_phase[static_cast<std::size_t>(phase - 1)];
    if (phase == 2 || phase == 4 || phase == 5 || phase == 7) {
      EXPECT_GT(traffic.messages, 0) << "phase " << phase;
    } else {
      EXPECT_EQ(traffic.messages, 0) << "phase " << phase;
    }
  }
}

TEST(MessageInventory, BoundaryExchangeDominatesMessageCount) {
  // Phase 2 sends at least 12 messages per directed boundary (one group
  // + final step), ghost phases send one each.
  const MessageInventory inventory = small_inventory(8);
  EXPECT_GT(inventory.per_phase[1].messages,
            inventory.per_phase[3].messages * 6);
}

TEST(MessageInventory, GhostPhasesShareCounts) {
  // Phases 4, 5, 7 send identical message counts (one per directed
  // boundary); phase 5/7 carry twice the bytes of phase 4.
  const MessageInventory inventory = small_inventory(8);
  EXPECT_EQ(inventory.per_phase[3].messages, inventory.per_phase[4].messages);
  EXPECT_EQ(inventory.per_phase[4].messages, inventory.per_phase[6].messages);
  EXPECT_NEAR(inventory.per_phase[4].bytes, 2.0 * inventory.per_phase[3].bytes,
              1e-9);
  EXPECT_NEAR(inventory.per_phase[6].bytes, inventory.per_phase[4].bytes,
              1e-9);
}

TEST(MessageInventory, FractionAtMostIsMonotoneCdf) {
  const MessageInventory inventory = small_inventory(16);
  double previous = 0.0;
  for (double bytes : {0.0, 12.0, 48.0, 120.0, 480.0, 1e5}) {
    const double fraction = inventory.fraction_at_most(bytes);
    EXPECT_GE(fraction, previous);
    EXPECT_LE(fraction, 1.0);
    previous = fraction;
  }
  EXPECT_DOUBLE_EQ(inventory.fraction_at_most(1e12), 1.0);
}

TEST(MessageInventory, MoreProcessorsMeansSmallerMessages) {
  // Strong scaling: boundaries shrink, so the mean message size drops.
  const MessageInventory at8 = small_inventory(8);
  const MessageInventory at64 = small_inventory(64);
  EXPECT_LT(at64.mean_message_bytes(), at8.mean_message_bytes());
  EXPECT_GT(at64.total_messages(), at8.total_messages());
}

/// A network whose every message costs `latency` seconds plus
/// `byte_cost` seconds per byte, whatever its size.
network::MessageCostModel flat_network(double latency, double byte_cost) {
  util::PiecewiseLinear latency_table;
  latency_table.add_point(1.0, latency);
  util::PiecewiseLinear byte_cost_table;
  byte_cost_table.add_point(1.0, byte_cost);
  return {latency_table, byte_cost_table};
}

using IdentityCase =
    std::tuple<mesh::DeckSize, partition::PartitionMethod, std::int32_t>;

class InventoryIdentityTest : public ::testing::TestWithParam<IdentityCase> {
};

TEST_P(InventoryIdentityTest, EquationsFiveToSevenChargeSendsAndGhostReceives) {
  // With every message costing 1 s, the model's per-rank point-to-point
  // time counts the messages it charges for; with every byte costing
  // 1 s, it sums their bytes. Eq. 5 charges each boundary exchange once,
  // as the rank's sends; Eqs. 6-7 charge a ghost update both ways,
  // Tmsg(b*N_local) + Tmsg(b*N_remote), so the rank's ghost-update
  // receives count too. Both sides are sums of integers.
  const auto& [size, method, pes] = GetParam();
  const mesh::InputDeck deck = mesh::make_standard_deck(size);
  const network::MachineConfig machine = network::make_es45_qsnet();
  const ComputationCostEngine engine;
  const SimKrak app(deck, partition::partition_deck(deck, pes, method, 1),
                    machine, engine, {});
  const network::MessageCostModel unit_count = flat_network(1.0, 0.0);
  const network::MessageCostModel unit_bytes = flat_network(0.0, 1.0);
  const std::unique_ptr<sim::Program> program = app.program();
  ASSERT_EQ(program->ranks(), pes);
  for (sim::RankId rank = 0; rank < pes; ++rank) {
    std::int64_t messages = 0;
    double bytes = 0.0;
    std::int32_t phase = 1;
    for (std::size_t pc = 0; phase <= kPhaseCount; ++pc) {
      const sim::Op op = program->op(rank, pc);
      const bool ghost_update =
          iteration_phases()[static_cast<std::size_t>(phase - 1)]
              .ghost_bytes() > 0.0;
      if (op.kind() == sim::OpKind::kRecord) {
        ++phase;
      } else if (op.kind() == sim::OpKind::kIsend ||
                 (op.kind() == sim::OpKind::kRecv && ghost_update)) {
        ++messages;
        bytes += op.bytes();
      }
    }
    const partition::SubdomainInfo& sub = app.stats().subdomain(rank);
    EXPECT_EQ(core::subdomain_point_to_point(unit_count, sub).total(),
              static_cast<double>(messages))
        << "rank " << rank;
    EXPECT_EQ(core::subdomain_point_to_point(unit_bytes, sub).total(), bytes)
        << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Decks, InventoryIdentityTest,
    ::testing::Combine(::testing::Values(mesh::DeckSize::kSmall,
                                         mesh::DeckSize::kMedium),
                       ::testing::Values(partition::PartitionMethod::kRcb,
                                         partition::PartitionMethod::kMultilevel),
                       ::testing::Values(2, 16, 128, 1024)),
    [](const auto& info) {
      return std::string(mesh::deck_size_name(std::get<0>(info.param))) + "_" +
             std::string(partition::partition_method_name(
                 std::get<1>(info.param))) +
             "_p" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace krak::simapp
