// Sensitivity study: which machine parameter should the next dollar buy?
// Uses the calibrated model's sensitivity analysis (latency, bandwidth,
// compute) across the strong-scaling sweep, plus the configuration
// optimizer to report the fastest and the most efficient PE counts.
// `sensitivity_study --help` lists the options.

#include <iostream>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/optimizer.hpp"
#include "core/sensitivity.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "simapp/costmodel.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& args) {
  using namespace krak;
  const std::string deck_name = args.get_string("deck", "medium");
  const mesh::DeckSize size = mesh::parse_deck_size(deck_name);
  const double delta = args.get_double("delta", 0.10);
  const std::int64_t iterations = args.get_int("iterations", 10000);
  const double efficiency_target = args.get_double("efficiency", 0.70);

  const std::int64_t cells = mesh::standard_deck_cells(size);

  const simapp::ComputationCostEngine application;
  const core::CostTable costs = core::calibrate_from_input(
      application, mesh::make_standard_deck(mesh::DeckSize::kMedium),
      {8, 64, 512, 4096});
  const core::KrakModel model(costs, network::make_es45_qsnet());

  const mesh::InputDeck deck = mesh::make_standard_deck(size);
  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  lint_input.machine = &model.machine();
  lint_input.costs = &costs;
  lint_input.pes = 1024;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  std::cout << "Sensitivity study: " << deck_name << " problem (" << cells
            << " cells), +" << util::format_percent(delta, 0)
            << " perturbations\n\n";

  util::TextTable table({"PEs", "Base (ms)", "Latency", "Bandwidth",
                         "Compute", "Dominant"});
  for (std::int32_t pes = 16; pes <= 1024; pes *= 4) {
    const core::SensitivityReport report = core::analyze_sensitivity(
        model, cells, pes, core::GeneralModelMode::kHomogeneous, delta);
    table.add_row({std::to_string(pes),
                   util::format_double(report.base_time * 1e3, 1),
                   util::format_percent(report.latency_sensitivity),
                   util::format_percent(report.bandwidth_sensitivity),
                   util::format_percent(report.compute_sensitivity),
                   report.dominant_parameter()});
  }
  std::cout << table;

  const core::Configuration fastest =
      core::find_fastest_configuration(model, cells);
  const core::Configuration efficient =
      core::find_efficiency_limit(model, cells, efficiency_target);
  std::cout << "\nFastest configuration: " << fastest.pes << " PEs at "
            << util::format_ms(fastest.iteration_time, 2) << "/iteration ("
            << util::format_percent(fastest.efficiency, 0)
            << " efficiency)\n";
  std::cout << "Largest configuration meeting "
            << util::format_percent(efficiency_target, 0)
            << " efficiency: " << efficient.pes << " PEs at "
            << util::format_ms(efficient.iteration_time, 2)
            << "/iteration\n";
  std::cout << "Predicted time to solution for " << iterations
            << " iterations on the efficient configuration: "
            << util::format_double(core::predict_time_to_solution(
                                       model, cells, efficient.pes,
                                       iterations),
                                   1)
            << " s\n";
  std::cout << "\nReading: at small scale the study says \"buy faster"
               " processors\"; past the\nscaling knee it says \"buy a"
               " lower-latency network\" — the quantitative answer the\n"
               "paper's introduction promises procurement teams.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(
      argc, argv,
      krak::analyze::lint_gate_options({"--deck small|medium|large",
                                        "--delta FRACTION", "--iterations N",
                                        "--efficiency FRACTION"}),
      run);
}
