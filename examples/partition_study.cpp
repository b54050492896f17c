// Partition study: "models can be useful for quantitatively evaluating
// the potential performance benefit of alterations to the application,
// such as the data-partitioning algorithms" (Section 1). This example
// evaluates three partitioners with the mesh-specific model and
// explains a non-obvious result: on this deck, minimizing edge cut is
// NOT the whole story — a partitioner that mixes materials within each
// subgrid avoids concentrating the expensive high-explosive gas on a
// few processors, trading communication for computation balance.

#include <iostream>

#include "analyze/lint_cli.hpp"
#include "core/calibration.hpp"
#include "core/comp_model.hpp"
#include "core/model.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/stats.hpp"
#include "simapp/costmodel.hpp"
#include "util/table.hpp"

namespace {

using namespace krak;

/// Fraction of processors whose subgrid is at least 95% one material.
double homogeneous_fraction(const partition::PartitionStats& stats) {
  std::int32_t homogeneous = 0;
  for (const partition::SubdomainInfo& sub : stats.subdomains()) {
    std::int64_t max_material = 0;
    for (std::int64_t n : sub.cells_per_material) {
      max_material = std::max(max_material, n);
    }
    if (sub.total_cells > 0 &&
        static_cast<double>(max_material) >=
            0.95 * static_cast<double>(sub.total_cells)) {
      ++homogeneous;
    }
  }
  return static_cast<double>(homogeneous) /
         static_cast<double>(stats.parts());
}

int run(const util::ArgParser& args) {
  const simapp::ComputationCostEngine application;
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const core::CostTable costs =
      core::calibrate_from_input(application, deck, {8, 64, 512, 4096});
  const core::KrakModel model(costs, network::make_es45_qsnet());
  const partition::Graph graph = partition::build_dual_graph(deck.grid());

  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  lint_input.machine = &model.machine();
  lint_input.costs = &costs;
  lint_input.pes = 256;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  std::cout << "Partition study: medium problem, mesh-specific model\n\n";
  for (std::int32_t pes : {64, 256}) {
    std::cout << pes << " processors:\n";
    util::TextTable table({"Method", "Edge cut", "Homogeneous PEs",
                           "Pred. comp (ms)", "Pred. comm (ms)",
                           "Pred. total (ms)"});
    table.set_alignment({util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight});
    for (partition::PartitionMethod method :
         {partition::PartitionMethod::kStrip, partition::PartitionMethod::kRcb,
          partition::PartitionMethod::kMultilevel,
          partition::PartitionMethod::kMaterialAware}) {
      const partition::Partition part =
          partition::partition_deck(deck, pes, method, 1);
      const partition::PartitionStats stats(deck, part);
      const partition::PartitionQuality quality =
          partition::evaluate_partition(graph, part);
      const core::PredictionReport report = model.predict_mesh_specific(stats);
      table.add_row({std::string(partition::partition_method_name(method)),
                     std::to_string(quality.edge_cut),
                     util::format_percent(homogeneous_fraction(stats)),
                     util::format_double(report.computation * 1e3, 2),
                     util::format_double(report.communication() * 1e3, 2),
                     util::format_double(report.total() * 1e3, 2)});
    }
    std::cout << table << "\n";
  }

  std::cout
      << "Reading the table: strip partitioning has a far larger edge cut,\n"
         "yet its predicted total can win. Its row-shaped subgrids mix all\n"
         "four materials, so no processor is pure high-explosive gas — the\n"
         "material the model charges ~1.6x for in material-dependent\n"
         "phases. Locality-first partitioners (RCB, multilevel) produce\n"
         "homogeneous subgrids at scale and pay the full HE-gas rate on\n"
         "the critical path. A material-aware partitioner balancing\n"
         "per-material cell counts is the alteration this model would\n"
         "recommend quantifying next — precisely the kind of what-if the\n"
         "paper built the model for.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, krak::analyze::lint_gate_options(),
                              run);
}
