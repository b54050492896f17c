// krak_analyze: static model-input linter (docs/ANALYSIS.md).
//
// Validates a deck + partition + machine + cost table bundle before any
// simulation runs, or one file (a fault-injection plan, a persistent
// partition-store entry or a campaign journal), and prints a
// severity-ranked diagnostic report. `corrupted` names a built-in
// broken input for --deck, --faults, --partition-store and --journal.
// `krak_analyze --help` lists the options.
//
//   krak_analyze --deck medium --pes 256 --method multilevel
//   krak_analyze --faults plan.krakfaults --pes 64
//   krak_analyze --journal corrupted
//
// Exit status: 0 when no errors were found, 1 when the inputs are
// inconsistent, 2 on usage errors.

#include <iostream>
#include <sstream>
#include <string>

#include "analyze/fixtures.hpp"
#include "analyze/lint_faults.hpp"
#include "analyze/lint_journal.hpp"
#include "analyze/lint_partition_store.hpp"
#include "analyze/linter.hpp"
#include "core/cost_table.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace krak;

/// Cost table sampled from the ground-truth engine at geometric subgrid
/// sizes: the noise-free analogue of a calibration campaign, fast
/// enough to lint the large deck interactively.
core::CostTable make_sampled_costs() {
  const simapp::ComputationCostEngine engine;
  core::CostTable costs;
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    for (mesh::Material material : mesh::all_materials()) {
      for (double cells = 1.0; cells <= 262144.0; cells *= 4.0) {
        costs.add_sample(phase, material, cells,
                         engine.per_cell_cost(phase, material,
                                              static_cast<std::int64_t>(cells)));
      }
    }
  }
  return costs;
}

int run(const util::ArgParser& args) {
  const std::string format = args.get_string("format", "text");
  if (format != "text" && format != "csv") {
    throw util::InvalidArgument("unknown --format '" + format + "'");
  }

  const std::string deck_name = args.get_string("deck", "medium");
  analyze::DiagnosticReport report;
  if (args.has("partition-store")) {
    const std::string store = args.get_string("partition-store", "");
    if (store == "corrupted") {
      std::istringstream in(analyze::corrupted_partition_store_text());
      (void)analyze::lint_partition_store(in, report);
    } else {
      report = analyze::lint_partition_store_file(store);
    }
  } else if (args.has("journal")) {
    const std::string journal = args.get_string("journal", "");
    if (journal == "corrupted") {
      std::istringstream in(analyze::corrupted_journal_text());
      (void)analyze::lint_journal(in, report);
    } else {
      report = analyze::lint_journal_file(journal);
    }
  } else if (args.has("faults")) {
    const std::string faults = args.get_string("faults", "");
    const auto pes = static_cast<std::int32_t>(args.get_int("pes", 0));
    if (faults == "corrupted") {
      std::istringstream in(analyze::corrupted_fault_spec_text());
      report = analyze::lint_faults(fault::parse_fault_plan(in), pes,
                                    simapp::kPhaseCount);
    } else {
      report = analyze::lint_fault_file(faults, pes, simapp::kPhaseCount);
    }
  } else if (deck_name == "corrupted") {
    report = analyze::lint_fixture(analyze::make_corrupted_fixture());
  } else {
    const mesh::InputDeck deck =
        deck_name == "figure2"
            ? mesh::make_figure2_deck()
            : mesh::make_standard_deck(mesh::parse_deck_size(deck_name));
    const auto pes = static_cast<std::int32_t>(args.get_int("pes", 64));
    const network::MachineConfig machine =
        network::make_machine(args.get_string("machine", "es45"));

    analyze::LintInput input;
    input.deck = &deck;
    input.machine = &machine;
    input.pes = pes;

    partition::Partition partition(1, {0});
    if (!args.has("no-partition")) {
      partition = partition::partition_deck(
          deck, pes,
          partition::parse_partition_method(
              args.get_string("method", "multilevel")));
      input.partition = &partition;
    }
    core::CostTable costs;
    if (!args.has("no-costs")) {
      costs = make_sampled_costs();
      input.costs = &costs;
    }
    report = analyze::lint_model(input);
  }

  std::cout << (format == "csv" ? report.to_csv() : report.to_text());
  return report.has_errors() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(
      argc, argv,
      {"--deck small|medium|large|figure2|corrupted", "--pes N",
       "--method strip|rcb|multilevel|material-aware",
       "--machine es45|upgrade", "--no-partition", "--no-costs",
       "--faults FILE|corrupted", "--partition-store FILE|corrupted",
       "--journal FILE|corrupted", "--format text|csv"},
      run);
}
