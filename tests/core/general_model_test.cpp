#include "core/general_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "network/machine.hpp"
#include "util/error.hpp"

namespace krak::core {
namespace {

using mesh::Material;

/// Flat unit-cost table (1 us per cell everywhere).
CostTable flat_table() {
  CostTable table;
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (Material m : mesh::all_materials()) {
      table.add_sample(phase, m, 1.0, 1e-6);
    }
  }
  return table;
}

/// Table where HE gas costs twice as much as everything else.
CostTable he_heavy_table() {
  CostTable table;
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (Material m : mesh::all_materials()) {
      const double cost = (m == Material::kHEGas) ? 2e-6 : 1e-6;
      table.add_sample(phase, m, 1.0, cost);
    }
  }
  return table;
}

TEST(GeneralModel, BoundaryFacesIsSqrtCellsPerPe) {
  // Section 3.2: "each boundary between processors contains
  // sqrt(Cells/PEs) faces".
  EXPECT_DOUBLE_EQ(GeneralModel::boundary_faces(400, 4), 10.0);
  EXPECT_DOUBLE_EQ(GeneralModel::boundary_faces(204800, 512),
                   std::sqrt(400.0));
  EXPECT_THROW((void)GeneralModel::boundary_faces(0, 4),
               util::InvalidArgument);
}

TEST(GeneralModel, HomogeneousTakesMostExpensiveMaterial) {
  // With HE gas 2x as costly, homogeneous mode must charge the HE rate
  // for the full subgrid.
  const GeneralModel model(he_heavy_table(), network::make_es45_qsnet());
  const auto report =
      model.predict(102400, 64, GeneralModelMode::kHomogeneous);
  const double cells_per_pe = 102400.0 / 64.0;
  EXPECT_NEAR(report.computation,
              simapp::kPhaseCount * cells_per_pe * 2e-6, 1e-9);
}

TEST(GeneralModel, HeterogeneousMixesMaterialCostsByRatio) {
  const GeneralModel model(he_heavy_table(), network::make_es45_qsnet());
  const auto report =
      model.predict(102400, 64, GeneralModelMode::kHeterogeneous);
  const double n = 102400.0 / 64.0;
  // Flat per-cell costs: sum_m ratio_m * n * c_m.
  const double expected_phase =
      n * (0.391 * 2e-6 + (0.172 + 0.203 + 0.234) * 1e-6);
  EXPECT_NEAR(report.computation, simapp::kPhaseCount * expected_phase, 1e-9);
}

TEST(GeneralModel, HomogeneousNeverCheaperThanHeterogeneousComputation) {
  // max over materials of a full-size subgrid >= ratio-weighted mix when
  // per-cell costs are flat in size.
  const GeneralModel model(he_heavy_table(), network::make_es45_qsnet());
  for (std::int32_t pes : {16, 64, 256}) {
    const auto homo = model.predict(204800, pes, GeneralModelMode::kHomogeneous);
    const auto het =
        model.predict(204800, pes, GeneralModelMode::kHeterogeneous);
    EXPECT_GE(homo.computation, het.computation - 1e-12) << pes;
  }
}

TEST(GeneralModel, HeterogeneousSendsMoreBoundaryExchangeMessages) {
  // Four per-material steps vs one: heterogeneous boundary exchange
  // must cost strictly more at equal total faces.
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  const auto homo = model.predict(204800, 256, GeneralModelMode::kHomogeneous);
  const auto het =
      model.predict(204800, 256, GeneralModelMode::kHeterogeneous);
  EXPECT_GT(het.boundary_exchange, homo.boundary_exchange);
}

TEST(GeneralModel, SingleProcessorHasNoCommunication) {
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  const auto report = model.predict(3200, 1, GeneralModelMode::kHomogeneous);
  EXPECT_DOUBLE_EQ(report.boundary_exchange, 0.0);
  EXPECT_DOUBLE_EQ(report.ghost_updates, 0.0);
  EXPECT_DOUBLE_EQ(report.broadcast, 0.0);
  EXPECT_DOUBLE_EQ(report.allreduce, 0.0);
  EXPECT_DOUBLE_EQ(report.gather, 0.0);
  EXPECT_GT(report.computation, 0.0);
}

TEST(GeneralModel, CollectivesGrowWithProcessorCount) {
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  const auto at64 = model.predict(204800, 64, GeneralModelMode::kHomogeneous);
  const auto at512 = model.predict(204800, 512, GeneralModelMode::kHomogeneous);
  EXPECT_GT(at512.allreduce, at64.allreduce);
  EXPECT_GT(at512.broadcast, at64.broadcast);
  EXPECT_GT(at512.gather, at64.gather);
}

TEST(GeneralModel, ComputationScalesInverselyWithPes) {
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  const auto at64 = model.predict(204800, 64, GeneralModelMode::kHomogeneous);
  const auto at128 = model.predict(204800, 128, GeneralModelMode::kHomogeneous);
  EXPECT_NEAR(at64.computation / at128.computation, 2.0, 1e-9);
}

TEST(GeneralModel, ComputeSpeedupScalesComputationOnly) {
  network::MachineConfig machine = network::make_es45_qsnet();
  machine.compute_speedup = 2.0;
  const GeneralModel fast(flat_table(), machine);
  const GeneralModel base(flat_table(), network::make_es45_qsnet());
  const auto f = fast.predict(204800, 128, GeneralModelMode::kHomogeneous);
  const auto b = base.predict(204800, 128, GeneralModelMode::kHomogeneous);
  EXPECT_NEAR(f.computation, b.computation / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.allreduce, b.allreduce);
}

TEST(GeneralModel, TwoProcessorsHaveOneNeighbor) {
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  const auto two = model.predict(204800, 2, GeneralModelMode::kHomogeneous);
  const auto many = model.predict(204800 * 8, 16, GeneralModelMode::kHomogeneous);
  // Same cells/PE and faces; the 2-PE config has 1 neighbor vs 4.
  EXPECT_NEAR(many.boundary_exchange / two.boundary_exchange, 4.0, 1e-9);
}

TEST(GeneralModel, RejectsBadArguments) {
  const GeneralModel model(flat_table(), network::make_es45_qsnet());
  EXPECT_THROW(
      (void)model.predict(0, 4, GeneralModelMode::kHomogeneous),
      util::InvalidArgument);
  EXPECT_THROW(
      (void)model.predict(100, 0, GeneralModelMode::kHomogeneous),
      util::InvalidArgument);
  EXPECT_THROW(
      (void)model.predict(100, 4096, GeneralModelMode::kHomogeneous),
      util::InvalidArgument);  // machine has 1024 PEs
}

TEST(GeneralModel, ModeNames) {
  EXPECT_EQ(general_model_mode_name(GeneralModelMode::kHomogeneous),
            "homogeneous");
  EXPECT_EQ(general_model_mode_name(GeneralModelMode::kHeterogeneous),
            "heterogeneous");
}

TEST(GeneralModel, CalibratedHeterogeneousOverpredictsAtScale) {
  // The paper's Section 5.2 shape: with a real (knee-bearing) calibrated
  // table, the heterogeneous flavor exceeds the homogeneous one at large
  // processor counts.
  const simapp::ComputationCostEngine engine;
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const CostTable table = calibrate_from_input(engine, deck, {8, 64, 512, 4096});
  const GeneralModel model(table, network::make_es45_qsnet());
  const auto homo = model.predict(204800, 512, GeneralModelMode::kHomogeneous);
  const auto het =
      model.predict(204800, 512, GeneralModelMode::kHeterogeneous);
  EXPECT_GT(het.total(), homo.total());
}

}  // namespace
}  // namespace krak::core
