// Scaling study: "a scalability analysis is the focus of the model
// developed here" (Section 1). This example sweeps processor counts for
// all three problem sizes with the general model, reports parallel
// efficiency and the computation/communication crossover, and picks the
// largest PE count that still meets an efficiency target — the question
// a user asks before submitting a job.

#include <iostream>
#include <vector>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/model.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "simapp/costmodel.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& args) {
  using namespace krak;

  const simapp::ComputationCostEngine application;
  const mesh::InputDeck calibration_deck =
      mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const core::CostTable costs = core::calibrate_from_input(
      application, calibration_deck, {8, 64, 512, 4096});
  const core::KrakModel model(costs, network::make_es45_qsnet());

  analyze::LintInput lint_input;
  lint_input.deck = &calibration_deck;
  lint_input.machine = &model.machine();
  lint_input.costs = &costs;
  lint_input.pes = 1024;  // the largest point in the sweep below
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  constexpr double kEfficiencyTarget = 0.70;
  std::cout << "Strong-scaling study on " << model.machine().name
            << " (general model, homogeneous)\n";
  std::cout << "Efficiency target: "
            << util::format_percent(kEfficiencyTarget, 0) << "\n\n";

  for (mesh::DeckSize size : {mesh::DeckSize::kSmall, mesh::DeckSize::kMedium,
                              mesh::DeckSize::kLarge}) {
    const std::int64_t cells = mesh::standard_deck_cells(size);
    std::cout << mesh::deck_size_name(size).data() << " problem (" << cells
              << " cells):\n";
    util::TextTable table({"PEs", "Time (ms)", "Speedup", "Efficiency",
                           "Comp (ms)", "Comm (ms)", "Comm share"});
    const double serial =
        model.predict_general(cells, 1, core::GeneralModelMode::kHomogeneous)
            .total();
    std::int32_t best_pes = 1;
    std::int32_t crossover_pes = 0;
    for (std::int32_t pes = 1; pes <= 1024; pes *= 2) {
      const core::PredictionReport report = model.predict_general(
          cells, pes, core::GeneralModelMode::kHomogeneous);
      const double speedup = serial / report.total();
      const double efficiency = speedup / pes;
      if (efficiency >= kEfficiencyTarget) best_pes = pes;
      if (crossover_pes == 0 && report.communication() > report.computation) {
        crossover_pes = pes;
      }
      table.add_row({std::to_string(pes),
                     util::format_double(report.total() * 1e3, 1),
                     util::format_double(speedup, 1) + "x",
                     util::format_percent(efficiency, 0),
                     util::format_double(report.computation * 1e3, 1),
                     util::format_double(report.communication() * 1e3, 2),
                     util::format_percent(
                         report.communication() / report.total(), 0)});
    }
    std::cout << table;
    std::cout << "  Largest PE count meeting the efficiency target: "
              << best_pes << "\n";
    if (crossover_pes != 0) {
      std::cout << "  Communication overtakes computation at " << crossover_pes
                << " PEs.\n";
    } else {
      std::cout << "  Computation dominates across the whole sweep.\n";
    }
    std::cout << "\n";
  }

  std::cout << "The small problem stops scaling two orders of magnitude\n"
               "earlier than the large one: with 22 global reductions per\n"
               "iteration, log(P) collective latency swamps the shrinking\n"
               "per-processor computation — the same effect that caps the\n"
               "paper's small-problem runs near 128 processors (Table 5).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, krak::analyze::lint_gate_options(),
                              run);
}
