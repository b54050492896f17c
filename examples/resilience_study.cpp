// Resilience study: delay propagation and absorption through the
// reduction-fenced Krak iteration.
//
// A one-off delay injected on one rank does not simply add to the wall
// time: phases fenced by global reductions force every rank to wait for
// the straggler (the delay propagates), while any wait time the victim
// rank already had downstream swallows part of it (the delay is
// absorbed). This example injects a deterministic delay with the
// src/fault subsystem, measures both components against a fault-free
// baseline of the same seeds, and checks the per-rank time identity
//
//   makespan = compute + overheads + waits + collective_cost
//              + fault_delay + recovery
//
// for every rank of both runs, within 1e-12 relative: every phase ends
// in an allreduce, so every rank finishes at the makespan. It exits 1
// when a rank's components miss it. It also prints the analytic Daly
// checkpoint/restart costs the fault model charges for rank crashes.
// `resilience_study --help` lists the options.

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "analyze/lint_cli.hpp"
#include "analyze/lint_faults.hpp"
#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/simkrak.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace krak;

/// Largest relative gap the per-rank time identity may show: round-off.
constexpr double kIdentityTolerance = 1e-12;

/// Worst relative gap, over the ranks of a run, between a rank's summed
/// time components and the makespan. A delay the simulator adds to a
/// clock without charging it to a component shows up here.
double identity_gap(const simapp::SimKrakResult& result) {
  double worst = 0.0;
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    worst = std::max(worst, std::abs(rank.total_seconds() - result.total_time) /
                                result.total_time);
  }
  return worst;
}

int run(const util::ArgParser& args) {
  const bool quick = args.has("quick");
  const double delay_s = args.get_double("delay", 0.05);

  const mesh::InputDeck deck = mesh::make_standard_deck(
      quick ? mesh::DeckSize::kSmall : mesh::DeckSize::kMedium);
  const network::MachineConfig machine = network::make_es45_qsnet();
  const simapp::ComputationCostEngine engine;

  analyze::LintInput lint_input;
  lint_input.deck = &deck;
  lint_input.machine = &machine;
  lint_input.pes = quick ? 8 : 32;
  const analyze::LintGateOutcome lint =
      analyze::run_lint_gate(args, lint_input, std::cout);
  if (lint != analyze::LintGateOutcome::kProceed) {
    return analyze::lint_exit_code(lint);
  }

  // The injected fault: rank 0 stalls for delay_s just before phase 3
  // of the second iteration (a compute-only phase fenced by an
  // allreduce, so every rank must absorb or inherit the delay at the
  // next fence).
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::OneOffDelay delay;
  delay.rank = 0;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = delay_s;
  plan.delays.push_back(delay);

  // Static sanity before running anything (the lint satellite).
  const analyze::DiagnosticReport plan_lint =
      analyze::lint_faults(plan, /*ranks=*/1'000'000, simapp::kPhaseCount);
  if (plan_lint.has_errors()) {
    std::cout << plan_lint.to_text();
    return 1;
  }

  std::cout << "Delay propagation study on " << machine.name << " ("
            << deck.name() << " deck, " << delay_s * 1e3
            << " ms one-off delay on rank 0, phase 3, iteration 1)\n\n";

  util::TextTable table({"PEs", "Baseline (ms)", "Faulted (ms)",
                         "Propagated (ms)", "Absorbed (ms)", "Identity gap"});

  const std::vector<std::int32_t> pe_sweep =
      quick ? std::vector<std::int32_t>{4, 8}
            : std::vector<std::int32_t>{8, 16, 32};
  double worst_gap = 0.0;
  for (const std::int32_t pes : pe_sweep) {
    const partition::Partition part = partition::partition_deck(
        deck, pes, partition::PartitionMethod::kMultilevel, /*seed=*/1);

    simapp::SimKrakOptions options;
    options.iterations = 3;
    // Noise off: the baseline and faulted runs then differ by exactly
    // the injected delay and its knock-on waits, nothing else.
    options.enable_noise = false;

    const simapp::SimKrak baseline_app(deck, part, machine, engine, options);
    const simapp::SimKrakResult baseline = baseline_app.run();

    options.faults = plan;
    const simapp::SimKrak faulted_app(deck, part, machine, engine, options);
    const simapp::SimKrakResult faulted = faulted_app.run();

    const double propagated = faulted.total_time - baseline.total_time;
    const double absorbed = delay_s - propagated;

    const double gap = std::max(identity_gap(baseline), identity_gap(faulted));
    worst_gap = std::max(worst_gap, gap);
    std::ostringstream gap_text;
    gap_text << std::scientific << std::setprecision(1) << gap;
    table.add_row({std::to_string(pes),
                   util::format_double(baseline.total_time * 1e3, 2),
                   util::format_double(faulted.total_time * 1e3, 2),
                   util::format_double(propagated * 1e3, 2),
                   util::format_double(absorbed * 1e3, 2), gap_text.str()});
  }
  std::cout << table << "\n";
  if (worst_gap > kIdentityTolerance) {
    std::cerr << "resilience_study: a rank's time components miss the "
                 "makespan by "
              << worst_gap << " relative (tolerance " << kIdentityTolerance
              << ")\n";
    return 1;
  }

  std::cout
      << "With every phase fenced by a global reduction there is almost no\n"
         "slack downstream of the injection point: the delay propagates\n"
         "nearly whole into the makespan instead of being absorbed, the\n"
         "idle-wave behavior of bulk-synchronous codes. Absorption only\n"
         "appears when waits already on the victim's critical path overlap\n"
         "the stall.\n\n";

  // Analytic checkpoint/restart accounting (Daly's first-order model):
  // the recovery cost a crash injection charges is restart + expected
  // rework, with rework = interval/2 when checkpointing, elapsed time
  // when not.
  const double checkpoint_cost_s = 5.0;
  const double mtbf_s = 3600.0;
  const double interval =
      fault::daly_optimal_interval(checkpoint_cost_s, mtbf_s);
  std::cout << "Checkpoint/restart model: checkpoint cost "
            << checkpoint_cost_s << " s, MTBF " << mtbf_s << " s\n"
            << "  Daly optimal interval  sqrt(2*C*MTBF) = " << interval
            << " s\n"
            << "  expected recovery (restart 30 s, checkpointing)   = "
            << fault::expected_recovery_cost(30.0, interval, 1800.0) << " s\n"
            << "  expected recovery (restart 30 s, no checkpoints,\n"
            << "   crash 1800 s into the run)                       = "
            << fault::expected_recovery_cost(30.0, 0.0, 1800.0) << " s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(
      argc, argv,
      krak::analyze::lint_gate_options({"--quick", "--delay SECONDS"}), run);
}
