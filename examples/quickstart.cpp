// Quickstart: calibrate a Krak performance model, predict an iteration,
// and check the prediction against a simulated run.
//
// This walks the full public API in ~60 lines:
//   1. build an input deck (the paper's medium cylinder),
//   2. calibrate per-cell costs from "measurements" of the application
//      (SimKrak stands in for the proprietary code),
//   3. predict iteration time with the general model,
//   4. cross-check with a discrete-event-simulated run.

#include <iostream>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/validation.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& args) {
  using namespace krak;

  // 1. The input deck: a 204,800-cell cylinder of four materials.
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  std::cout << "Deck: " << deck.name() << ", " << deck.grid().num_cells()
            << " cells, " << deck.distinct_material_count() << " materials\n";

  // 2. Calibrate per-cell computation costs with the paper's "Method 2":
  //    solve linear systems over real partitions at several scales.
  //    The engine is the ground-truth application stand-in.
  const simapp::ComputationCostEngine application;
  const core::CostTable costs =
      core::calibrate_from_input(application, deck, {8, 64, 512, 4096});

  // 3. Build the model for the paper's validation machine and predict.
  const core::KrakModel model(costs, network::make_es45_qsnet());
  constexpr std::int32_t kPes = 256;

  // Optional `--lint` / `--lint-only` gate over everything built so far.
  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  lint_input.machine = &model.machine();
  lint_input.costs = &costs;
  lint_input.pes = kPes;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }
  const core::PredictionReport prediction = model.predict_general(
      deck.grid().num_cells(), kPes, core::GeneralModelMode::kHomogeneous);
  std::cout << "\nGeneral-model prediction for " << kPes << " processors:\n"
            << prediction.to_string();

  // 4. Cross-check against a simulated execution of the application,
  //    measured the way the validation tables measure it.
  const double measured =
      core::validate_general(deck, kPes, model,
                             core::GeneralModelMode::kHomogeneous, application)
          .measured;
  std::cout << "Simulated (\"measured\") iteration time: "
            << util::format_ms(measured, 3) << "\n";
  const double error = (measured - prediction.total()) / measured;
  std::cout << "Prediction error (paper convention): "
            << util::format_percent(error) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, krak::analyze::lint_gate_options(),
                              run);
}
