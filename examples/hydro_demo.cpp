// Hydro demo: run the Lagrangian mini-app on the paper's cylindrical
// deck — detonate the HE core, watch the shock cross the material
// layers — then close the loop on the paper's methodology with REAL
// measurements: time the solver at several subgrid sizes, fit the
// piecewise-linear per-cell cost table (Section 3.1's Method 1), and
// check the fit's prediction at an unsampled size against a direct
// measurement. `hydro_demo --help` lists the options.

#include <iostream>

#include "analyze/lint_cli.hpp"
#include "hydro/measure.hpp"
#include "hydro/solver.hpp"
#include "mesh/deck.hpp"
#include "util/cli.hpp"
#include "util/piecewise.hpp"
#include "util/table.hpp"

namespace {

using namespace krak;

/// One-character pressure map, rows top to bottom.
void print_pressure_map(const hydro::HydroState& state) {
  const mesh::Grid& grid = state.grid();
  const double max_pressure = state.max_pressure().first;
  if (max_pressure <= 0.0) return;
  constexpr std::string_view kShades = " .:-=+*#%@";
  for (std::int32_t j = grid.ny() - 1; j >= 0; j -= 2) {
    std::string line;
    for (std::int32_t i = 0; i < grid.nx(); i += 2) {
      const double p =
          state.pressure[static_cast<std::size_t>(grid.cell_at(i, j))];
      const auto shade = static_cast<std::size_t>(
          std::min(9.0, 10.0 * p / max_pressure));
      line += kShades[shade];
    }
    std::cout << line << "\n";
  }
}

int run(const util::ArgParser& args) {
  const auto nx = static_cast<std::int32_t>(args.get_int("nx", 80));
  const auto ny = static_cast<std::int32_t>(args.get_int("ny", 40));
  const double end_time = args.get_double("time", 3.0);
  const auto threads = static_cast<std::int32_t>(args.get_int("threads", 1));

  const mesh::InputDeck deck = mesh::make_cylindrical_deck(nx, ny);

  // Deck-only lint gate: the mini-app has no machine or cost table.
  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  std::cout << "Deck: " << deck.name() << " (" << deck.grid().num_cells()
            << " cells); detonating to t = " << end_time << "\n\n";

  hydro::HydroState state(deck);
  const double e0 = state.total_energy();
  hydro::HydroConfig solver_config;
  solver_config.threads = threads;
  hydro::HydroSolver solver(state, solver_config);

  util::TextTable trace({"t", "dt", "max p", "E total", "E kinetic",
                         "burn radius"});
  const double report_interval = end_time / 6.0;
  double next_report = report_interval;
  hydro::StepStats stats;
  while (state.time < end_time) {
    stats = solver.step();
    if (state.time >= next_report) {
      trace.add_row({util::format_double(stats.time, 2),
                     util::format_double(stats.dt, 4),
                     util::format_double(stats.max_pressure, 2),
                     util::format_double(stats.total_energy, 1),
                     util::format_double(state.total_kinetic_energy(), 1),
                     util::format_double(stats.burn_front_radius, 1)});
      next_report += report_interval;
    }
  }
  std::cout << trace;
  std::cout << "Energy: started at " << util::format_double(e0, 1)
            << ", ended at " << util::format_double(stats.total_energy, 1)
            << " (detonation energy added by the burn)\n\n";

  std::cout << "Pressure field at t = " << util::format_double(state.time, 2)
            << " (axis on the left, 2x2 cells per character):\n";
  print_pressure_map(state);

  // Per-phase wall-clock profile of the run (the mini-app's Table 1).
  std::cout << "\nPhase profile over " << solver.steps_taken() << " steps:\n";
  util::TextTable profile({"Phase", "Total (ms)", "Share"});
  profile.set_alignment(
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight});
  const double total_seconds = solver.timers().total_seconds();
  for (std::size_t p = 0; p < hydro::kHydroPhaseCount; ++p) {
    const double seconds =
        solver.timers().seconds(static_cast<hydro::HydroPhase>(p));
    profile.add_row(
        {std::string(hydro::hydro_phase_name(static_cast<hydro::HydroPhase>(p))),
         util::format_double(seconds * 1e3, 2),
         util::format_percent(seconds / total_seconds)});
  }
  std::cout << profile;

  // The paper's Method 1 on real code: measure per-cell costs at a size
  // ladder, build the piecewise-linear table, predict an unsampled size.
  std::cout << "\nMethod-1 calibration on real measurements (foam):\n";
  const std::vector<std::int64_t> ladder = {64, 1024, 16384};
  util::PiecewiseLinear fitted;
  for (const hydro::HydroCostSample& sample :
       hydro::sweep_hydro_costs(mesh::Material::kFoam, ladder, 20)) {
    fitted.add_point(static_cast<double>(sample.cells),
                     sample.total_per_cell_seconds());
  }
  const hydro::HydroCostSample probe =
      hydro::measure_uniform_cost(mesh::Material::kFoam, 4096, 20);
  const double predicted = fitted(static_cast<double>(probe.cells));
  const double measured = probe.total_per_cell_seconds();
  std::cout << "  per-cell cost at " << probe.cells
            << " cells: measured " << util::format_double(measured * 1e9, 1)
            << " ns, piecewise-linear fit "
            << util::format_double(predicted * 1e9, 1) << " ns ("
            << util::format_percent((measured - predicted) / measured)
            << " error, wall-clock noise included)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(
      argc, argv,
      krak::analyze::lint_gate_options(
          {"--nx N", "--ny N", "--time T", "--threads N"}),
      run);
}
