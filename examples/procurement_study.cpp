// Procurement study: the paper's opening motivation — "expectation of
// future workload performance is often a primary criterion in the
// procurement of a new large-scale parallel machine". This example uses
// the calibrated general model to compare the installed ES-45/QsNet
// machine against a hypothetical upgrade (2x compute, 2x network)
// WITHOUT running the application on either: predicted iteration times,
// speedups, and the scale at which the upgrade pays off most.

#include <iostream>
#include <vector>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/model.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "simapp/costmodel.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& args) {
  using namespace krak;

  const simapp::ComputationCostEngine application;
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kLarge);
  const core::CostTable costs = core::calibrate_from_input(
      application, mesh::make_standard_deck(mesh::DeckSize::kMedium),
      {8, 64, 512, 4096});

  const core::KrakModel installed(costs, network::make_es45_qsnet());
  const core::KrakModel candidate(costs, network::make_hypothetical_upgrade());

  // Lint against the candidate machine too: a procurement run with a
  // mistyped upgrade description is exactly what the gate is for.
  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  lint_input.machine = &installed.machine();
  lint_input.costs = &costs;
  lint_input.pes = 1024;
  const analyze::LintGateOutcome first =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (first == analyze::LintGateOutcome::kExitError) {
    return analyze::lint_exit_code(first);
  }
  lint_input.machine = &candidate.machine();
  const analyze::LintGateOutcome second =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (second != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(second);
  }
  if (first != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(first);
  }

  std::cout << "Procurement study: large problem ("
            << deck.grid().num_cells() << " cells), "
            << installed.machine().name << " vs. "
            << candidate.machine().name << "\n\n";

  util::TextTable table({"PEs", "Installed (ms)", "Candidate (ms)", "Speedup",
                         "Installed comm %", "Candidate comm %"});
  double best_speedup = 0.0;
  std::int32_t best_pes = 0;
  for (std::int32_t pes = 16; pes <= 1024; pes *= 2) {
    const auto base = installed.predict_general(
        deck.grid().num_cells(), pes, core::GeneralModelMode::kHomogeneous);
    const auto next = candidate.predict_general(
        deck.grid().num_cells(), pes, core::GeneralModelMode::kHomogeneous);
    const double speedup = base.total() / next.total();
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_pes = pes;
    }
    table.add_row(
        {std::to_string(pes), util::format_double(base.total() * 1e3, 1),
         util::format_double(next.total() * 1e3, 1),
         util::format_double(speedup, 2) + "x",
         util::format_percent(base.communication() / base.total()),
         util::format_percent(next.communication() / next.total())});
  }
  std::cout << table;

  std::cout << "\nBest predicted upgrade speedup: "
            << util::format_double(best_speedup, 2) << "x at " << best_pes
            << " PEs.\n";
  std::cout << "Note the speedup is below the 2x component gains wherever\n"
               "communication latency (which the upgrade halves but cannot\n"
               "remove) holds a larger share of the iteration.\n";

  // What if only the network were upgraded? A cheaper option to price.
  network::MachineConfig net_only = network::make_es45_qsnet();
  net_only.name = "NetOnly-2x";
  net_only.network = net_only.network.scaled(0.5, 0.5);
  const core::KrakModel net_model(costs, net_only);
  std::cout << "\nNetwork-only upgrade option at 512 PEs: ";
  const double base_512 =
      installed
          .predict_general(deck.grid().num_cells(), 512,
                           core::GeneralModelMode::kHomogeneous)
          .total();
  const double net_512 =
      net_model
          .predict_general(deck.grid().num_cells(), 512,
                           core::GeneralModelMode::kHomogeneous)
          .total();
  std::cout << util::format_double(base_512 / net_512, 2) << "x speedup ("
            << util::format_ms(net_512, 1) << " per iteration)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, krak::analyze::lint_gate_options(),
                              run);
}
