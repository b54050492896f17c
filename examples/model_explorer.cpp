// Model explorer: a command-line front end to the calibrated model —
// the utility a performance engineer keeps in PATH. Calibrates once
// (or loads a saved table), prints a full prediction breakdown for any
// configuration, and optionally saves/loads the calibration.
// `model_explorer --help` lists the options.
//
// Examples:
//   model_explorer --deck large --pes 512
//   model_explorer --cells 1000000 --pes 1024 --mode hetero
//   model_explorer --deck medium --pes 128 --mode mesh   # real partition

#include <iostream>
#include <optional>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/table_io.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& args) {
  using namespace krak;

  const mesh::DeckSize size =
      mesh::parse_deck_size(args.get_string("deck", "medium"));
  const std::int64_t cells =
      args.get_int("cells", mesh::standard_deck_cells(size));
  const auto pes = static_cast<std::int32_t>(args.get_int("pes", 256));
  const std::string mode_name = args.get_string("mode", "homo");
  if (mode_name != "homo" && mode_name != "hetero" && mode_name != "mesh") {
    throw util::InvalidArgument("unknown mode '" + mode_name + "'");
  }
  const network::MachineConfig machine =
      network::make_machine(args.get_string("machine", "es45"));

  // Calibration: load from disk if asked, otherwise run Method 2 and
  // optionally persist it.
  core::CostTable costs;
  if (args.has("load-costs")) {
    costs = core::load_cost_table(args.get_string("load-costs", ""));
    std::cout << "Loaded calibration from "
              << args.get_string("load-costs", "") << "\n";
  } else {
    const simapp::ComputationCostEngine application;
    costs = core::calibrate_from_input(
        application, mesh::make_standard_deck(mesh::DeckSize::kMedium),
        {8, 64, 512, 4096});
    if (args.has("save-costs")) {
      core::save_cost_table(args.get_string("save-costs", ""), costs);
      std::cout << "Saved calibration to "
                << args.get_string("save-costs", "") << "\n";
    }
  }

  const core::KrakModel model(costs, machine);

  const mesh::InputDeck deck = mesh::make_standard_deck(size);
  std::optional<partition::Partition> part;
  if (mode_name == "mesh") {
    part = partition::partition_deck(deck, pes,
                                     partition::PartitionMethod::kMultilevel, 1);
  }

  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  if (part) lint_input.partition = &*part;
  lint_input.machine = &machine;
  lint_input.costs = &costs;
  lint_input.pes = pes;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  core::PredictionReport report;
  if (mode_name == "mesh") {
    report = model.predict_mesh_specific(deck, *part);
    std::cout << "Mesh-specific prediction (" << deck.name() << ", real "
              << "multilevel partition) on " << machine.name << ":\n";
  } else {
    const core::GeneralModelMode mode =
        (mode_name == "hetero") ? core::GeneralModelMode::kHeterogeneous
                                : core::GeneralModelMode::kHomogeneous;
    report = model.predict_general(cells, pes, mode);
    std::cout << "General-model prediction ("
              << core::general_model_mode_name(mode) << ", " << cells
              << " cells) on " << machine.name << ":\n";
  }
  std::cout << pes << " processors\n\n" << report.to_string();

  std::cout << "\nPer-phase computation:\n";
  util::TextTable table({"Phase", "Time", "Share of computation"});
  for (std::size_t p = 0; p < simapp::kPhaseCount; ++p) {
    table.add_row({std::to_string(p + 1),
                   util::format_us(report.phase_computation[p], 1),
                   util::format_percent(report.phase_computation[p] /
                                        report.computation)});
  }
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(
      argc, argv,
      krak::analyze::lint_gate_options(
          {"--deck small|medium|large", "--cells N", "--pes P",
           "--mode homo|hetero|mesh", "--machine es45|upgrade",
           "--load-costs FILE", "--save-costs FILE"}),
      run);
}
