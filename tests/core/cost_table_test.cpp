#include "core/cost_table.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/error.hpp"

namespace krak::core {
namespace {

using mesh::Material;

TEST(CostTable, EmptyPairThrowsOnQuery) {
  const CostTable table;
  EXPECT_FALSE(table.has_samples(1, Material::kHEGas));
  EXPECT_THROW((void)table.per_cell(1, Material::kHEGas, 100.0),
               util::KrakError);
}

TEST(CostTable, SingleSampleIsConstant) {
  CostTable table;
  table.add_sample(3, Material::kFoam, 1000.0, 2e-6);
  EXPECT_TRUE(table.has_samples(3, Material::kFoam));
  EXPECT_EQ(table.sample_count(3, Material::kFoam), 1u);
  EXPECT_DOUBLE_EQ(table.per_cell(3, Material::kFoam, 10.0), 2e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(3, Material::kFoam, 1e6), 2e-6);
}

TEST(CostTable, InterpolatesLinearlyInCells) {
  CostTable table;
  table.add_sample(1, Material::kHEGas, 100.0, 10e-6);
  table.add_sample(1, Material::kHEGas, 300.0, 2e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(1, Material::kHEGas, 200.0), 6e-6);
}

TEST(CostTable, ClampsOutsideSampledRange) {
  CostTable table;
  table.add_sample(1, Material::kHEGas, 100.0, 10e-6);
  table.add_sample(1, Material::kHEGas, 1000.0, 2e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(1, Material::kHEGas, 10.0), 10e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(1, Material::kHEGas, 1e8), 2e-6);
}

TEST(CostTable, PhaseAndMaterialAreIndependentSlots) {
  CostTable table;
  table.add_sample(1, Material::kHEGas, 100.0, 1e-6);
  table.add_sample(2, Material::kHEGas, 100.0, 2e-6);
  table.add_sample(1, Material::kFoam, 100.0, 3e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(1, Material::kHEGas, 100.0), 1e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(2, Material::kHEGas, 100.0), 2e-6);
  EXPECT_DOUBLE_EQ(table.per_cell(1, Material::kFoam, 100.0), 3e-6);
  EXPECT_FALSE(table.has_samples(2, Material::kFoam));
}

TEST(CostTable, SubgridTimeSumsPerMaterialContributions) {
  // Equation (2)'s inner sum: n_m * T(phase, m, n_total).
  CostTable table;
  for (Material m : mesh::all_materials()) {
    table.add_sample(4, m, 10.0, 1e-6 * (1.0 + mesh::material_index(m)));
  }
  std::array<std::int64_t, mesh::kMaterialCount> counts = {10, 20, 30, 40};
  const double expected =
      10 * 1e-6 + 20 * 2e-6 + 30 * 3e-6 + 40 * 4e-6;
  EXPECT_NEAR(table.subgrid_time(4, counts), expected, 1e-15);
}

TEST(CostTable, SubgridTimeEvaluatesAtTotalSize) {
  // |Cells_j| in Equation (2) is the processor's total subgrid size.
  CostTable table;
  table.add_sample(1, Material::kHEGas, 100.0, 10e-6);
  table.add_sample(1, Material::kHEGas, 200.0, 2e-6);
  table.add_sample(1, Material::kFoam, 100.0, 10e-6);
  table.add_sample(1, Material::kFoam, 200.0, 2e-6);
  // 100 HE + 100 foam = 200 total -> both evaluated at 200.
  std::array<std::int64_t, mesh::kMaterialCount> counts = {100, 0, 100, 0};
  EXPECT_NEAR(table.subgrid_time(1, counts), 200.0 * 2e-6, 1e-15);
}

TEST(CostTable, EmptySubgridIsFree) {
  const CostTable table;
  const std::array<std::int64_t, mesh::kMaterialCount> zeros{};
  EXPECT_DOUBLE_EQ(table.subgrid_time(7, zeros), 0.0);
  EXPECT_DOUBLE_EQ(table.uniform_subgrid_time(7, Material::kFoam, 0.0), 0.0);
}

TEST(CostTable, AbsentMaterialWithZeroCellsIgnored) {
  CostTable table;
  table.add_sample(1, Material::kHEGas, 100.0, 1e-6);
  // Foam has no samples but also no cells: must not throw.
  std::array<std::int64_t, mesh::kMaterialCount> counts = {50, 0, 0, 0};
  EXPECT_NO_THROW((void)table.subgrid_time(1, counts));
}

TEST(CostTable, RejectsInvalidArguments) {
  CostTable table;
  EXPECT_THROW(table.add_sample(0, Material::kFoam, 10.0, 1e-6),
               util::InvalidArgument);
  EXPECT_THROW(table.add_sample(16, Material::kFoam, 10.0, 1e-6),
               util::InvalidArgument);
  EXPECT_THROW(table.add_sample(1, Material::kFoam, 0.0, 1e-6),
               util::InvalidArgument);
  EXPECT_THROW(table.add_sample(1, Material::kFoam, 10.0, -1e-6),
               util::InvalidArgument);
  table.add_sample(1, Material::kFoam, 10.0, 1e-6);
  EXPECT_THROW((void)table.per_cell(1, Material::kFoam, 0.0),
               util::InvalidArgument);
  std::array<std::int64_t, mesh::kMaterialCount> negative = {-1, 0, 0, 0};
  EXPECT_THROW((void)table.subgrid_time(1, negative), util::InvalidArgument);
}

TEST(CostTable, UniformSubgridTimeIsCellsTimesPerCell) {
  CostTable table;
  table.add_sample(5, Material::kAluminumInner, 100.0, 3e-6);
  table.add_sample(5, Material::kAluminumInner, 1000.0, 1e-6);
  const double cells = 550.0;
  EXPECT_NEAR(table.uniform_subgrid_time(5, Material::kAluminumInner, cells),
              cells * table.per_cell(5, Material::kAluminumInner, cells),
              1e-15);
}

}  // namespace
}  // namespace krak::core
