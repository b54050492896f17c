#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/validation.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"

namespace krak {
namespace {

/// Qualitative reproduction of the paper's headline findings. These are
/// the properties EXPERIMENTS.md reports; each test pins one *shape*
/// from the evaluation section (not the absolute numbers, which depend
/// on the authors' testbed).
class PaperShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new simapp::ComputationCostEngine();
    medium_ = new mesh::InputDeck(
        mesh::make_standard_deck(mesh::DeckSize::kMedium));
    small_ = new mesh::InputDeck(
        mesh::make_standard_deck(mesh::DeckSize::kSmall));
    const core::CostTable table =
        core::calibrate_from_input(*engine_, *medium_, {8, 64, 512, 4096});
    model_ = new core::KrakModel(table, network::make_es45_qsnet());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete small_;
    delete medium_;
    delete engine_;
    model_ = nullptr;
    small_ = nullptr;
    medium_ = nullptr;
    engine_ = nullptr;
  }

  static simapp::ComputationCostEngine* engine_;
  static mesh::InputDeck* medium_;
  static mesh::InputDeck* small_;
  static core::KrakModel* model_;
};

simapp::ComputationCostEngine* PaperShapesTest::engine_ = nullptr;
mesh::InputDeck* PaperShapesTest::medium_ = nullptr;
mesh::InputDeck* PaperShapesTest::small_ = nullptr;
core::KrakModel* PaperShapesTest::model_ = nullptr;

TEST_F(PaperShapesTest, Table5SmallProblemErrsNearTheKnee) {
  // "In two cases, the predicted runtime was in error by more than 50%.
  // This is the case near the knee of the per-cell cost curve." Our
  // reproduction requires the small problem's worst mesh-specific error
  // to clearly exceed the medium problem's worst error.
  double worst_small = 0.0;
  double worst_medium = 0.0;
  for (std::int32_t pes : {16, 64, 128}) {
    worst_small =
        std::max(worst_small,
                 std::abs(core::validate_mesh_specific(*small_, pes, *model_,
                                                       *engine_)
                              .error()));
    worst_medium =
        std::max(worst_medium,
                 std::abs(core::validate_mesh_specific(*medium_, pes, *model_,
                                                       *engine_)
                              .error()));
  }
  EXPECT_GT(worst_small, 0.15);   // large errors near the knee
  EXPECT_LT(worst_medium, 0.10);  // "accurate to within 10%" elsewhere
  EXPECT_GT(worst_small, 1.5 * worst_medium);
}

TEST_F(PaperShapesTest, Table6HomogeneousAccurateAtLargeScale) {
  // "We have validated the general model ... on 512 processors, model
  // accuracy is within 3%" — we accept a slightly wider single-digit
  // band since the substrate differs.
  const core::ValidationPoint point = core::validate_general(
      *medium_, 512, *model_, core::GeneralModelMode::kHomogeneous, *engine_);
  EXPECT_LT(std::abs(point.error()), 0.08)
      << "measured=" << point.measured << " predicted=" << point.predicted;
}

TEST_F(PaperShapesTest, Figure5HeterogeneousOverpredictsAtScale) {
  // Section 5.2: "At large scale a heterogeneous material distribution
  // is less accurate ... leads to an over-prediction of runtime."
  const core::ValidationPoint het = core::validate_general(
      *medium_, 512, *model_, core::GeneralModelMode::kHeterogeneous,
      *engine_);
  EXPECT_LT(het.error(), -0.10);  // paper sign convention: over-prediction
}

TEST_F(PaperShapesTest, Figure5HeterogeneousGapGrowsWithScale) {
  const auto gap = [&](std::int32_t pes) {
    const double het =
        model_
            ->predict_general(204800, pes,
                              core::GeneralModelMode::kHeterogeneous)
            .total();
    const double homo =
        model_
            ->predict_general(204800, pes, core::GeneralModelMode::kHomogeneous)
            .total();
    return het / homo;
  };
  EXPECT_GT(gap(512), gap(64));
  EXPECT_GT(gap(512), 1.10);
}

TEST_F(PaperShapesTest, Figure5HomogeneousOverpredictsAtSmallScale) {
  // At one processor the subgrid holds the global material mix, so the
  // all-HE-gas homogeneous assumption over-charges (its curve sits above
  // the measured one at the left edge of Figure 5).
  const double measured =
      core::validate_general(*medium_, 1, *model_,
                             core::GeneralModelMode::kHomogeneous, *engine_)
          .measured;
  const double homo =
      model_->predict_general(204800, 1, core::GeneralModelMode::kHomogeneous)
          .total();
  const double het =
      model_
          ->predict_general(204800, 1, core::GeneralModelMode::kHeterogeneous)
          .total();
  EXPECT_GT(homo, measured);
  // And the heterogeneous flavor is the better fit at 1 PE.
  EXPECT_LT(std::abs(het - measured), std::abs(homo - measured));
}

TEST_F(PaperShapesTest, Figure3PerCellCurvesHaveKneeAndPlateau) {
  // The measured per-cell curves of Figure 3: steep on the left,
  // flat on the right, material separation in dependent phases.
  for (std::int32_t phase : {1, 2, 7}) {
    const double left = engine_->per_cell_cost(phase, mesh::Material::kHEGas, 2);
    const double mid =
        engine_->per_cell_cost(phase, mesh::Material::kHEGas, 1000);
    const double right =
        engine_->per_cell_cost(phase, mesh::Material::kHEGas, 1000000);
    EXPECT_GT(left / right, 20.0) << "phase " << phase;
    EXPECT_NEAR(mid / right, 1.0, 0.35) << "phase " << phase;
  }
}

TEST_F(PaperShapesTest, Figure2MaterialDependencePattern) {
  // Figure 2: some phases' times depend on the subgrid's material
  // (phase 14), others only on cell count (phase 10).
  constexpr std::int64_t n = 256;  // 65,536 cells on 256 PEs
  const double he14 =
      engine_->uniform_subgrid_time(14, mesh::Material::kHEGas, n);
  const double foam14 =
      engine_->uniform_subgrid_time(14, mesh::Material::kFoam, n);
  EXPECT_GT(he14 / foam14, 1.2);
  const double he10 =
      engine_->uniform_subgrid_time(10, mesh::Material::kHEGas, n);
  const double foam10 =
      engine_->uniform_subgrid_time(10, mesh::Material::kFoam, n);
  EXPECT_DOUBLE_EQ(he10, foam10);
}

TEST_F(PaperShapesTest, StrongScalingSaturatesForSmallProblem) {
  // The paper's small problem stops scaling between 64 and 128 PEs
  // (Table 5: 88 ms -> 28 ms with collective overheads growing); ours
  // must show clearly sub-linear scaling at that size.
  const auto measure = [](std::int32_t pes) {
    return core::validate_general(*small_, pes, *model_,
                                  core::GeneralModelMode::kHomogeneous,
                                  *engine_)
        .measured;
  };
  const double at16 = measure(16);
  const double at128 = measure(128);
  const double speedup = at16 / at128;
  EXPECT_GT(speedup, 1.0);
  EXPECT_LT(speedup, 4.0);  // far below the ideal 8x
}

}  // namespace
}  // namespace krak
