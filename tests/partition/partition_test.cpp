#include "partition/partition.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/error.hpp"

namespace krak::partition {
namespace {

TEST(Partition, RejectsOutOfRangeAssignment) {
  EXPECT_THROW(Partition(2, {0, 1, 2}), util::InvalidArgument);
  EXPECT_THROW(Partition(2, {0, -1}), util::InvalidArgument);
  EXPECT_THROW(Partition(0, {0}), util::InvalidArgument);
  EXPECT_THROW(Partition(1, {}), util::InvalidArgument);
}

TEST(Partition, CellCountsSumToTotal) {
  const Partition p(3, {0, 1, 2, 0, 1, 0});
  const auto counts = p.cell_counts();
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            p.num_cells());
}

TEST(Partition, PeOfChecksRange) {
  const Partition p(1, {0, 0});
  EXPECT_THROW((void)p.pe_of(2), util::InvalidArgument);
  EXPECT_THROW((void)p.pe_of(-1), util::InvalidArgument);
}

TEST(Strips, SizesDifferByAtMostOne) {
  const Partition p = partition_strips(10, 3);
  const auto counts = p.cell_counts();
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(counts[2], 3);
}

TEST(Strips, AssignmentIsContiguous) {
  const Partition p = partition_strips(9, 3);
  for (std::int64_t cell = 1; cell < 9; ++cell) {
    EXPECT_GE(p.pe_of(cell), p.pe_of(cell - 1));
  }
}

TEST(Strips, OnePartTakesEverything) {
  const Partition p = partition_strips(5, 1);
  for (std::int64_t cell = 0; cell < 5; ++cell) EXPECT_EQ(p.pe_of(cell), 0);
}

TEST(Strips, MorePartsThanCellsRejected) {
  EXPECT_THROW((void)partition_strips(2, 3), util::InvalidArgument);
}

TEST(EvaluatePartition, PerfectStripOnPathGraph) {
  // A 1 x 9 grid partitioned into 3 contiguous strips cuts exactly 2
  // edges.
  const mesh::Grid grid(9, 1);
  const Graph g = build_dual_graph(grid);
  const Partition p = partition_strips(9, 3);
  const PartitionQuality q = evaluate_partition(g, p);
  EXPECT_EQ(q.edge_cut, 2);
  EXPECT_EQ(q.min_cells, 3);
  EXPECT_EQ(q.max_cells, 3);
  EXPECT_DOUBLE_EQ(q.imbalance, 1.0);
  EXPECT_EQ(q.empty_parts, 0);
  EXPECT_EQ(q.max_neighbors, 2);  // the middle strip
}

TEST(EvaluatePartition, DetectsEmptyParts) {
  const mesh::Grid grid(4, 1);
  const Graph g = build_dual_graph(grid);
  const Partition p(3, {0, 0, 1, 1});
  const PartitionQuality q = evaluate_partition(g, p);
  EXPECT_EQ(q.empty_parts, 1);
  EXPECT_EQ(q.min_cells, 0);
}

TEST(EvaluatePartition, SizeMismatchThrows) {
  const Graph g = build_dual_graph(mesh::Grid(2, 2));
  const Partition p(1, {0, 0});
  EXPECT_THROW((void)evaluate_partition(g, p), util::InvalidArgument);
}

TEST(MethodName, AllNamed) {
  EXPECT_EQ(partition_method_name(PartitionMethod::kStrip), "strip");
  EXPECT_EQ(partition_method_name(PartitionMethod::kRcb), "rcb");
  EXPECT_EQ(partition_method_name(PartitionMethod::kMultilevel), "multilevel");
}

TEST(MethodName, ParsesEachNameAndRefusesOthers) {
  for (PartitionMethod method :
       {PartitionMethod::kStrip, PartitionMethod::kRcb,
        PartitionMethod::kMultilevel, PartitionMethod::kMaterialAware}) {
    EXPECT_EQ(parse_partition_method(partition_method_name(method)), method);
  }
  EXPECT_THROW((void)parse_partition_method("metis"), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::partition
