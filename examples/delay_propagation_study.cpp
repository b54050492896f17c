// Delay-propagation study at scale: one-off delays scattered across
// thousands of ranks of a synthetic large deck.
//
// The small-scale resilience_study shows one straggler's delay
// propagating through the reduction fences. This study asks the
// follow-on question the 100k-rank regime raises: when THOUSANDS of
// ranks each suffer a one-off delay in the same iteration, does the
// makespan pay the sum of the delays or only their maximum? With every
// phase fenced by a global reduction the answer is the maximum — all
// the stalls overlap behind the same fence — and the study measures
// exactly that: the propagated cost stays flat as the victim count
// grows a thousandfold while the injected total grows linearly, so the
// absorbed fraction approaches one.
//
// The runs use the synthetic deck generator (mesh/synthetic.hpp), the
// full network stack (hierarchical network + shared-NIC contention),
// and the sharded parallel engine — the same configuration as the
// BENCH_PR9 large_100k scenario, at a rank count an example can afford.
// `delay_propagation_study --help` lists the options.

#include <iostream>
#include <vector>

#include "analyze/lint_faults.hpp"
#include "core/partition_cache.hpp"
#include "fault/plan.hpp"
#include "mesh/synthetic.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/simkrak.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace krak;

/// A fault plan delaying `victims` distinct ranks, spread evenly over
/// the rank space, each by `seconds` at the same phase of the same
/// iteration — the worst case for a fence: every stall lands behind
/// the same allreduce.
fault::FaultPlan scattered_delays(std::int32_t victims, std::int32_t ranks,
                                  double seconds) {
  fault::FaultPlan plan;
  plan.seed = 7;
  const std::int32_t stride = ranks / victims;
  for (std::int32_t v = 0; v < victims; ++v) {
    fault::OneOffDelay delay;
    delay.rank = v * stride;
    delay.phase = 3;
    delay.iteration = 1;
    delay.seconds = seconds;
    plan.delays.push_back(delay);
  }
  return plan;
}

int run(const util::ArgParser& args) {
  const bool quick = args.has("quick");
  const double delay_s = args.get_double("delay", 0.01);

  // The synthetic deck and rank count scale with --quick; both modes
  // stay in the "thousands of ranks" regime the study is about.
  const mesh::InputDeck deck = mesh::make_synthetic_deck(
      mesh::paper_synthetic_spec(quick ? 512 : 1024, quick ? 64 : 128));
  const std::int32_t ranks = quick ? 2048 : 8192;

  network::MachineConfig machine = network::make_es45_qsnet();
  machine.nodes = (ranks + machine.pes_per_node - 1) / machine.pes_per_node;
  const simapp::ComputationCostEngine engine;

  // RCB, not multilevel: at thousands of parts the coarsening pipeline
  // costs more than every simulation in the sweep combined.
  const auto partitioned = core::PartitionCache::global().get(
      deck, ranks, partition::PartitionMethod::kRcb, /*seed=*/1);

  simapp::SimKrakOptions options;
  options.iterations = 3;
  // Noise off: each faulted run then differs from the baseline by
  // exactly its injected delays and their knock-on waits.
  options.enable_noise = false;
  // The full stack of the BENCH_PR9 100k-rank scenarios, on the
  // sharded engine (bit-identical to the oracle, several times faster
  // at this rank count).
  options.hierarchical_network = true;
  options.nic_contention = true;
  options.sim_threads = 8;

  const simapp::SimKrak baseline_app(deck, partitioned->partition, machine,
                                     engine, partitioned->stats, options);
  const simapp::SimKrakResult baseline = baseline_app.run();

  std::cout << "Delay propagation at scale: " << deck.name() << " deck, "
            << ranks << " ranks, " << delay_s * 1e3
            << " ms one-off delay per victim (phase 3, iteration 1)\n\n";

  util::TextTable table({"Victims", "Injected (ms)", "Baseline (ms)",
                         "Faulted (ms)", "Propagated (ms)", "Absorbed"});
  const std::vector<std::int32_t> victim_sweep =
      quick ? std::vector<std::int32_t>{1, 16, 256}
            : std::vector<std::int32_t>{1, 16, 256, 4096};
  for (const std::int32_t victims : victim_sweep) {
    const fault::FaultPlan plan = scattered_delays(victims, ranks, delay_s);
    const analyze::DiagnosticReport plan_lint =
        analyze::lint_faults(plan, ranks, simapp::kPhaseCount);
    if (plan_lint.has_errors()) {
      std::cout << plan_lint.to_text();
      return 1;
    }

    simapp::SimKrakOptions faulted_options = options;
    faulted_options.faults = plan;
    const simapp::SimKrak faulted_app(deck, partitioned->partition, machine,
                                      engine, partitioned->stats,
                                      faulted_options);
    const simapp::SimKrakResult faulted = faulted_app.run();

    const double injected = victims * delay_s;
    const double propagated = faulted.total_time - baseline.total_time;
    const double absorbed = injected - propagated;
    table.add_row({std::to_string(victims),
                   util::format_double(injected * 1e3, 2),
                   util::format_double(baseline.total_time * 1e3, 2),
                   util::format_double(faulted.total_time * 1e3, 2),
                   util::format_double(propagated * 1e3, 2),
                   util::format_double(absorbed / injected, 4)});
  }
  std::cout << table << "\n";

  std::cout
      << "Simultaneous stalls behind one reduction fence overlap instead of\n"
         "accumulating: the propagated cost is set by the slowest victim, so\n"
         "it stays near one delay's worth while the injected total grows\n"
         "linearly with the victim count — which is why a machine-wide noise\n"
         "event costs a bulk-synchronous code one delay, not thousands, and\n"
         "why a single unlucky rank hurts exactly as much as a thousand.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, {"--quick", "--delay SECONDS"},
                              run);
}
