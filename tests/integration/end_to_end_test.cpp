#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/validation.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"

namespace krak {
namespace {

/// Shared expensive setup: one calibrated model reused by every test in
/// this file (SetUpTestSuite runs once per binary).
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new simapp::ComputationCostEngine();
    deck_ = new mesh::InputDeck(mesh::make_standard_deck(mesh::DeckSize::kMedium));
    const core::CostTable table =
        core::calibrate_from_input(*engine_, *deck_, {8, 64, 512, 4096});
    model_ = new core::KrakModel(table, network::make_es45_qsnet());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete deck_;
    delete engine_;
    model_ = nullptr;
    deck_ = nullptr;
    engine_ = nullptr;
  }

  static simapp::ComputationCostEngine* engine_;
  static mesh::InputDeck* deck_;
  static core::KrakModel* model_;
};

simapp::ComputationCostEngine* EndToEndTest::engine_ = nullptr;
mesh::InputDeck* EndToEndTest::deck_ = nullptr;
core::KrakModel* EndToEndTest::model_ = nullptr;

TEST_F(EndToEndTest, GeneralHomogeneousWithinTenPercentAtScale) {
  // The paper's Table 6 regime: medium problem, large processor counts,
  // homogeneous general model. Our reproduction targets the same band
  // (single-digit percent errors).
  for (std::int32_t pes : {128, 256, 512}) {
    const core::ValidationPoint point = core::validate_general(
        *deck_, pes, *model_, core::GeneralModelMode::kHomogeneous, *engine_);
    EXPECT_LT(std::abs(point.error()), 0.10)
        << "pes=" << pes << " measured=" << point.measured
        << " predicted=" << point.predicted;
  }
}

TEST_F(EndToEndTest, MeshSpecificAccurateAwayFromKnee) {
  // Table 5's medium rows: mesh-specific errors below ~10% when
  // subgrids are far from the knee.
  for (std::int32_t pes : {16, 64}) {
    const core::ValidationPoint point =
        core::validate_mesh_specific(*deck_, pes, *model_, *engine_);
    EXPECT_LT(std::abs(point.error()), 0.10) << "pes=" << pes;
  }
}

TEST_F(EndToEndTest, PredictionWithoutSimulationIsFast) {
  // The whole point of the general model: predicting a configuration
  // must not require partitioning or simulating it. Smoke-check by
  // sweeping many configurations cheaply.
  double total = 0.0;
  for (std::int32_t pes = 1; pes <= 1024; pes *= 2) {
    total += model_
                 ->predict_general(819200, pes,
                                   core::GeneralModelMode::kHomogeneous)
                 .total();
  }
  EXPECT_GT(total, 0.0);
}

TEST_F(EndToEndTest, ModelTracksMachineUpgrade) {
  // A twice-as-fast machine must be predicted faster, by less than 2x
  // (communication latency does not halve compute-bound fractions
  // uniformly ... but both components halve here, so allow wide band).
  core::KrakModel upgraded(model_->cost_table(),
                           network::make_hypothetical_upgrade());
  const double base =
      model_->predict_general(204800, 256, core::GeneralModelMode::kHomogeneous)
          .total();
  const double fast =
      upgraded.predict_general(204800, 256, core::GeneralModelMode::kHomogeneous)
          .total();
  EXPECT_LT(fast, base);
  EXPECT_GT(fast, base / 2.5);
}

TEST_F(EndToEndTest, SimulatedSpeedupMatchesModelSpeedupDirection) {
  // Model-predicted strong-scaling speedup and SimKrak-measured speedup
  // agree within 15% on the medium problem between 64 and 256 PEs.
  const auto measure = [](std::int32_t pes) {
    return core::validate_general(*deck_, pes, *model_,
                                  core::GeneralModelMode::kHomogeneous,
                                  *engine_)
        .measured;
  };
  const double measured64 = measure(64);
  const double measured256 = measure(256);
  const double predicted64 =
      model_->predict_general(204800, 64, core::GeneralModelMode::kHomogeneous)
          .total();
  const double predicted256 =
      model_->predict_general(204800, 256, core::GeneralModelMode::kHomogeneous)
          .total();
  const double measured_speedup = measured64 / measured256;
  const double predicted_speedup = predicted64 / predicted256;
  EXPECT_NEAR(predicted_speedup / measured_speedup, 1.0, 0.15);
}

TEST_F(EndToEndTest, CommunicationFractionGrowsWithScale) {
  // Strong scaling shrinks computation while collectives grow with
  // log(P): the communication fraction must increase monotonically.
  double previous_fraction = 0.0;
  for (std::int32_t pes : {16, 64, 256, 1024}) {
    const auto report = model_->predict_general(
        204800, pes, core::GeneralModelMode::kHomogeneous);
    const double fraction = report.communication() / report.total();
    EXPECT_GT(fraction, previous_fraction) << "pes=" << pes;
    previous_fraction = fraction;
  }
}

}  // namespace
}  // namespace krak
