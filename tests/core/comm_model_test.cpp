#include "core/comm_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "network/msgmodel.hpp"
#include "util/error.hpp"

namespace krak::core {
namespace {

/// Unit-latency, zero-bandwidth network: each message costs exactly 1,
/// so Equation (5) degenerates to a message count.
network::MessageCostModel counting_network() {
  return network::make_hockney_model(1.0, 1e30);
}

TEST(BoundaryExchange, CountsSixMessagesPerMaterialPlusFinal) {
  // Equation (5) with three materials present: 3 steps + final = 24
  // messages.
  const auto net = counting_network();
  const std::vector<double> faces = {3.0, 4.0, 3.0};
  EXPECT_NEAR(boundary_exchange_time(net, faces), 24.0, 1e-9);
}

TEST(BoundaryExchange, ZeroFaceMaterialsContributeNothing) {
  const auto net = counting_network();
  const std::vector<double> some = {5.0, 0.0, 0.0};
  EXPECT_NEAR(boundary_exchange_time(net, some), 12.0, 1e-9);  // 1 step + final
  const std::vector<double> none = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(boundary_exchange_time(net, none), 0.0);
}

TEST(BoundaryExchange, Table3MessageSizes) {
  // Reproduce Table 3 exactly with a bandwidth-only network
  // (1 byte = 1 second, zero latency): total time = total bytes.
  const auto net = network::make_hockney_model(0.0, 1.0);
  const std::vector<double> faces = {3.0, 4.0, 3.0};        // HE, Al, foam
  const std::vector<double> multi_nodes = {1.0, 3.0, 2.0};  // Table 3
  // Bytes: HE 2*48+4*36 = 240; Al 2*84+4*48 = 360; foam 2*60+4*36 = 264;
  // final 6*120 = 720. Total 1584.
  EXPECT_NEAR(boundary_exchange_time(net, faces, multi_nodes), 1584.0, 1e-9);
}

TEST(BoundaryExchange, AugmentationOnlyAffectsFirstTwoMessages) {
  const auto net = network::make_hockney_model(0.0, 1.0);
  const std::vector<double> faces = {10.0};
  const std::vector<double> nodes = {5.0};
  const double base = boundary_exchange_time(net, faces);
  const double augmented = boundary_exchange_time(net, faces, nodes);
  // Two messages gain 5 * 12 bytes each.
  EXPECT_NEAR(augmented - base, 2.0 * 5.0 * 12.0, 1e-9);
}

TEST(BoundaryExchange, SpanLengthMismatchRejected) {
  const auto net = counting_network();
  const std::vector<double> faces = {1.0, 2.0};
  const std::vector<double> nodes = {1.0};
  EXPECT_THROW((void)boundary_exchange_time(net, faces, nodes),
               util::InvalidArgument);
}

TEST(BoundaryExchange, NegativeCountsRejected) {
  const auto net = counting_network();
  const std::vector<double> faces = {-1.0};
  EXPECT_THROW((void)boundary_exchange_time(net, faces),
               util::InvalidArgument);
}

TEST(GhostUpdate, SumsLocalAndRemoteMessages) {
  // Equations (6)-(7): Tmsg(b*N_L) + Tmsg(b*N_R).
  const auto net = network::make_hockney_model(0.5, 1.0);
  // 8 bytes per node, 10 local + 11 remote: 0.5+80 + 0.5+88 = 169.
  EXPECT_NEAR(ghost_update_time(net, 8.0, 10.0, 11.0), 169.0, 1e-9);
}

TEST(GhostUpdate, SixteenByteUpdatesCostMore) {
  const auto net = network::make_qsnet1_model();
  EXPECT_GT(ghost_update_time(net, 16.0, 50.0, 50.0),
            ghost_update_time(net, 8.0, 50.0, 50.0));
}

TEST(GhostUpdate, RejectsNegativeArguments) {
  const auto net = counting_network();
  EXPECT_THROW((void)ghost_update_time(net, -8.0, 1.0, 1.0),
               util::InvalidArgument);
  EXPECT_THROW((void)ghost_update_time(net, 8.0, -1.0, 1.0),
               util::InvalidArgument);
}

TEST(SubdomainP2P, CountsMessagesOverNeighbors) {
  const auto net = counting_network();
  partition::SubdomainInfo sub;
  sub.pe = 0;
  partition::NeighborBoundary b1;
  b1.neighbor = 1;
  b1.faces_per_group = {3, 0, 0};
  b1.total_faces = 3;
  b1.ghost_nodes_local = 2;
  b1.ghost_nodes_remote = 2;
  partition::NeighborBoundary b2 = b1;
  b2.neighbor = 2;
  sub.neighbors = {b1, b2};

  const PointToPointBreakdown breakdown = subdomain_point_to_point(net, sub);
  // Per neighbor: boundary exchange = 12 messages (1 group + final);
  // ghost updates = 3 phases x 2 messages = 6.
  EXPECT_NEAR(breakdown.boundary_exchange, 24.0, 1e-9);
  EXPECT_NEAR(breakdown.ghost_updates, 12.0, 1e-9);
  EXPECT_NEAR(breakdown.total(), 36.0, 1e-9);
}

TEST(SubdomainP2P, GhostAugmentationToggle) {
  // Three multi-material ghost nodes on the boundary add 12 bytes each
  // to the first two messages of the material's step, against the same
  // boundary with none.
  const auto net = network::make_hockney_model(0.0, 1.0);
  partition::SubdomainInfo sub;
  sub.pe = 0;
  partition::NeighborBoundary boundary;
  boundary.neighbor = 1;
  boundary.faces_per_group = {4, 0, 0};
  boundary.total_faces = 4;
  sub.neighbors = {boundary};
  const double without_aug =
      subdomain_point_to_point(net, sub).boundary_exchange;
  sub.neighbors[0].multi_material_ghost_nodes = 3;
  sub.neighbors[0].multi_material_nodes_per_group = {3, 0, 0};
  const double with_aug =
      subdomain_point_to_point(net, sub).boundary_exchange;
  EXPECT_NEAR(with_aug - without_aug, 2.0 * 3.0 * 12.0, 1e-9);
}

TEST(MaxP2P, TakesComponentwiseMaximum) {
  const auto net = counting_network();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 9, partition::PartitionMethod::kMultilevel, 1);
  const partition::PartitionStats stats(deck, part);
  const PointToPointBreakdown max = max_point_to_point(net, stats);
  for (const partition::SubdomainInfo& sub : stats.subdomains()) {
    const PointToPointBreakdown b = subdomain_point_to_point(net, sub);
    EXPECT_LE(b.boundary_exchange, max.boundary_exchange + 1e-12);
    EXPECT_LE(b.ghost_updates, max.ghost_updates + 1e-12);
  }
}

}  // namespace
}  // namespace krak::core
