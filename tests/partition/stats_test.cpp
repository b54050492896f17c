#include "partition/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <numeric>

#include "mesh/deck.hpp"
#include "partition/partition.hpp"
#include "util/error.hpp"

namespace krak::partition {
namespace {

using mesh::Material;

/// The Figure 4 scenario: a two-column grid, one column per processor,
/// with 3 HE gas, 2 aluminum, 3 foam, and 2 aluminum rows stacked along
/// the boundary — the exact configuration behind Table 3.
mesh::InputDeck make_figure4_deck() {
  mesh::Grid grid(2, 10);
  std::vector<Material> materials(20);
  const auto material_of_row = [](std::int32_t j) {
    if (j < 3) return Material::kHEGas;
    if (j < 5) return Material::kAluminumInner;
    if (j < 8) return Material::kFoam;
    return Material::kAluminumOuter;
  };
  for (std::int32_t j = 0; j < 10; ++j) {
    for (std::int32_t i = 0; i < 2; ++i) {
      materials[static_cast<std::size_t>(grid.cell_at(i, j))] =
          material_of_row(j);
    }
  }
  return mesh::InputDeck("figure4", grid, std::move(materials),
                         mesh::Point{0.0, 4.0});
}

Partition figure4_partition() {
  // Column 0 -> PE A (0), column 1 -> PE B (1).
  std::vector<PeId> assignment(20);
  for (std::int32_t j = 0; j < 10; ++j) {
    assignment[static_cast<std::size_t>(j * 2)] = 0;
    assignment[static_cast<std::size_t>(j * 2 + 1)] = 1;
  }
  return Partition(2, std::move(assignment));
}

TEST(PartitionStats, Figure4FaceCountsMatchTable3) {
  const mesh::InputDeck deck = make_figure4_deck();
  const PartitionStats stats(deck, figure4_partition());
  ASSERT_EQ(stats.parts(), 2);
  const SubdomainInfo& a = stats.subdomain(0);
  ASSERT_EQ(a.neighbors.size(), 1u);
  const NeighborBoundary& boundary = a.neighbors.front();
  EXPECT_EQ(boundary.neighbor, 1);
  EXPECT_EQ(boundary.total_faces, 10);
  // Groups: HE gas 3, aluminum (both layers) 2+2, foam 3.
  EXPECT_EQ(boundary.faces_per_group[mesh::exchange_group(Material::kHEGas)], 3);
  EXPECT_EQ(
      boundary.faces_per_group[mesh::exchange_group(Material::kAluminumInner)],
      4);
  EXPECT_EQ(boundary.faces_per_group[mesh::exchange_group(Material::kFoam)], 3);
}

TEST(PartitionStats, Figure4MultiMaterialNodesMatchTable3) {
  // Table 3's message sizes imply: HE gas sees 1 multi-material node,
  // aluminum 3, foam 2 — the three material junctions along the
  // boundary, each charged to the materials meeting there.
  const mesh::InputDeck deck = make_figure4_deck();
  const PartitionStats stats(deck, figure4_partition());
  const NeighborBoundary& boundary = stats.subdomain(0).neighbors.front();
  EXPECT_EQ(boundary.multi_material_ghost_nodes, 3);
  EXPECT_EQ(boundary.multi_material_nodes_per_group[mesh::exchange_group(
                Material::kHEGas)],
            1);
  EXPECT_EQ(boundary.multi_material_nodes_per_group[mesh::exchange_group(
                Material::kAluminumInner)],
            3);
  EXPECT_EQ(boundary.multi_material_nodes_per_group[mesh::exchange_group(
                Material::kFoam)],
            2);
}

TEST(PartitionStats, Figure4GhostNodesCountFacesPlusOne) {
  // A contiguous boundary of F faces carries F + 1 nodes (Section 3.2's
  // general-model assumption holds exactly here).
  const mesh::InputDeck deck = make_figure4_deck();
  const PartitionStats stats(deck, figure4_partition());
  const NeighborBoundary& boundary = stats.subdomain(0).neighbors.front();
  EXPECT_EQ(boundary.total_ghost_nodes(), 11);
}

TEST(PartitionStats, GhostOwnershipSymmetricAcrossPair) {
  // My local ghost nodes are exactly the neighbor's remote ones.
  const mesh::InputDeck deck = make_figure4_deck();
  const PartitionStats stats(deck, figure4_partition());
  const NeighborBoundary& from_a = stats.subdomain(0).neighbors.front();
  const NeighborBoundary& from_b = stats.subdomain(1).neighbors.front();
  EXPECT_EQ(from_a.ghost_nodes_local, from_b.ghost_nodes_remote);
  EXPECT_EQ(from_a.ghost_nodes_remote, from_b.ghost_nodes_local);
  EXPECT_EQ(from_a.total_ghost_nodes(), from_b.total_ghost_nodes());
}

TEST(PartitionStats, FaceCountsSymmetricAcrossPair) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const Partition part =
      partition_deck(deck, 12, PartitionMethod::kMultilevel, 7);
  const PartitionStats stats(deck, part);
  for (const SubdomainInfo& sub : stats.subdomains()) {
    for (const NeighborBoundary& boundary : sub.neighbors) {
      // Find the reverse edge.
      const SubdomainInfo& other = stats.subdomain(boundary.neighbor);
      const auto it = std::find_if(
          other.neighbors.begin(), other.neighbors.end(),
          [&](const NeighborBoundary& b) { return b.neighbor == sub.pe; });
      ASSERT_NE(it, other.neighbors.end());
      EXPECT_EQ(boundary.total_faces, it->total_faces);
      EXPECT_EQ(boundary.faces_per_group, it->faces_per_group);
      EXPECT_EQ(boundary.multi_material_nodes_per_group,
                it->multi_material_nodes_per_group);
    }
  }
}

TEST(PartitionStats, CellCountsSumAcrossSubdomains) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const Partition part =
      partition_deck(deck, 16, PartitionMethod::kMultilevel, 1);
  const PartitionStats stats(deck, part);
  std::int64_t total = 0;
  std::array<std::int64_t, mesh::kMaterialCount> per_material{};
  for (const SubdomainInfo& sub : stats.subdomains()) {
    total += sub.total_cells;
    std::int64_t sub_sum = 0;
    for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
      per_material[m] += sub.cells_per_material[m];
      sub_sum += sub.cells_per_material[m];
    }
    EXPECT_EQ(sub_sum, sub.total_cells);
  }
  EXPECT_EQ(total, deck.grid().num_cells());
  EXPECT_EQ(per_material, deck.material_cell_counts());
}

TEST(PartitionStats, GroupFacesSumToTotalFaces) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const Partition part =
      partition_deck(deck, 16, PartitionMethod::kMultilevel, 2);
  const PartitionStats stats(deck, part);
  for (const SubdomainInfo& sub : stats.subdomains()) {
    for (const NeighborBoundary& boundary : sub.neighbors) {
      const std::int64_t group_sum = std::accumulate(
          boundary.faces_per_group.begin(), boundary.faces_per_group.end(),
          std::int64_t{0});
      EXPECT_EQ(group_sum, boundary.total_faces);
      EXPECT_GT(boundary.total_faces, 0);
    }
  }
}

TEST(PartitionStats, GhostSplitRoughlyHalfAtScale) {
  // Section 3.2 assumes half the ghost nodes on each boundary are local;
  // the hash-based ownership rule should give 50% +- a few percent in
  // aggregate.
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const Partition part =
      partition_deck(deck, 64, PartitionMethod::kMultilevel, 1);
  const PartitionStats stats(deck, part);
  std::int64_t local = 0;
  std::int64_t total = 0;
  for (const SubdomainInfo& sub : stats.subdomains()) {
    for (const NeighborBoundary& boundary : sub.neighbors) {
      local += boundary.ghost_nodes_local;
      total += boundary.total_ghost_nodes();
    }
  }
  ASSERT_GT(total, 0);
  const double fraction = static_cast<double>(local) / static_cast<double>(total);
  EXPECT_NEAR(fraction, 0.5, 0.05);
}

// The neighbor lists stay resident through a whole replay, so each is
// reserved to its exact length: at 102,400 RCB parts push_back's growth
// slack held 7.16 entries of capacity per 5.48 neighbors.
TEST(PartitionStats, NeighborListsAreSizedExactly) {
  const mesh::InputDeck deck =
      mesh::make_standard_deck(mesh::DeckSize::kMedium);
  for (const PartitionMethod method :
       {PartitionMethod::kMultilevel, PartitionMethod::kRcb}) {
    const PartitionStats stats(deck, partition_deck(deck, 64, method, 1));
    std::int32_t uneven = 0;
    for (const SubdomainInfo& sub : stats.subdomains()) {
      EXPECT_EQ(sub.neighbors.capacity(), sub.neighbors.size())
          << "pe " << sub.pe;
      if (!std::has_single_bit(sub.neighbors.size())) ++uneven;
    }
    // Growth by doubling leaves slack wherever the count is no power of
    // two, so these partitions tell exact reservation from growth.
    EXPECT_GT(uneven, 0);
  }
}

TEST(PartitionStats, SinglePartHasNoBoundaries) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const Partition part(1, std::vector<PeId>(3200, 0));
  const PartitionStats stats(deck, part);
  EXPECT_TRUE(stats.subdomain(0).neighbors.empty());
  EXPECT_EQ(stats.subdomain(0).total_cells, 3200);
  EXPECT_EQ(stats.total_boundary_faces(), 0);
}

TEST(PartitionStats, MaxCellsReflectsImbalance) {
  const mesh::InputDeck deck = mesh::make_uniform_deck(4, 1, Material::kFoam);
  const Partition part(2, {0, 0, 0, 1});
  const PartitionStats stats(deck, part);
  EXPECT_EQ(stats.max_cells_per_pe(), 3);
}

TEST(PartitionStats, MismatchedPartitionRejected) {
  const mesh::InputDeck deck = mesh::make_uniform_deck(2, 2, Material::kFoam);
  const Partition part(1, {0, 0});
  EXPECT_THROW(PartitionStats(deck, part), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::partition
