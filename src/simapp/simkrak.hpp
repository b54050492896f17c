#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"
#include "sim/simulator.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/phases.hpp"

namespace krak::simapp {

/// Options of a SimKrak run.
struct SimKrakOptions {
  /// Iterations to simulate; phase times are averaged over them.
  std::int32_t iterations = 1;
  /// Seed of the per-rank measurement-noise streams.
  std::uint64_t noise_seed = 42;
  /// Disable to make runs exactly reproduce ground truth (useful in
  /// tests asserting analytic identities).
  bool enable_noise = true;
  /// Model intra-node (shared-memory) messages separately from
  /// inter-node ones using the machine's node layout. The paper's model
  /// flattens this; enabling it quantifies the flattening error
  /// (the `ablation_hierarchy` key of krak_repro).
  bool hierarchical_network = false;
  /// Serialize each node's outbound payloads at its adapter's injection
  /// bandwidth (the ranks of one ES-45 node share a single QsNet
  /// adapter). Off by default — the paper's Tmsg is contention-free.
  bool nic_contention = false;
  /// Deterministic fault-injection plan (see fault/plan.hpp). Empty by
  /// default: no injector is installed and the run is bit-identical to
  /// a build without the fault subsystem. Its max_sim_seconds becomes
  /// sim::SimConfig::max_sim_seconds, empty plan or not.
  fault::FaultPlan faults;
  /// Worker threads of the simulator's conservative parallel engine;
  /// <= 1 keeps the single-thread oracle. Results are bit-identical
  /// across thread counts (sim::SimConfig::threads), nic_contention
  /// included — shards align to NIC-node boundaries, so the adapter
  /// model is shard-local and runs parallel with no oracle fallback.
  std::int32_t sim_threads = 1;
  /// Cooperative cancellation token (not owned; must outlive the run).
  /// When it expires mid-run the simulator throws a structured
  /// sim::SimFailureError of kind kDeadline instead of finishing; null
  /// disables the checkpoints entirely, keeping the run bit-identical
  /// to a build without the cancellation subsystem.
  const util::CancellationToken* cancel = nullptr;
};

/// Result of a SimKrak run.
struct SimKrakResult {
  /// Simulated wall time of the whole run.
  double total_time = 0.0;
  /// total_time / iterations — the quantity the paper's tables report.
  double time_per_iteration = 0.0;
  /// Mean wall time of each phase (communication included).
  std::array<double, kPhaseCount> phase_times{};
  sim::TrafficStats traffic;
  /// Sum of the per-rank time decompositions over all ranks:
  /// compute vs. point-to-point vs. collective, the per-phase split the
  /// paper's Equations 1-10 predict (totals.total_seconds() is the sum
  /// of rank finish times, i.e. ranks x makespan minus end-of-run idle).
  sim::RankTimeBreakdown totals;
  /// Per-rank decomposition, index = rank.
  std::vector<sim::RankTimeBreakdown> rank_breakdown;
  std::int32_t ranks = 0;
  std::size_t events_processed = 0;
  /// High-water mark of the simulator's event queue.
  std::size_t max_queue_depth = 0;
  /// Host wall seconds of the parallel engine's serial coordinator
  /// sections (sim::SimResult::coordinator_seconds; zero under the
  /// serial oracle). The Amdahl numerator BENCH reports as
  /// coordinator_serial_fraction.
  double coordinator_seconds = 0.0;
  /// Aggregate fault-injection accounting (zero when no plan was set).
  sim::FaultStats fault_stats;
  /// Why the run could not finish (sim::SimResult::failures): hangs the
  /// fault plan induced, or a trip of its max_sim_seconds. When
  /// non-empty, phase_times covers only fully recorded iterations.
  std::vector<sim::SimFailure> failures;
  [[nodiscard]] bool failed() const { return !failures.empty(); }
};

/// SimKrak: a discrete-event-simulated execution of the Krak iteration.
///
/// This is the project's substitute for the proprietary 270k-line
/// application (see DESIGN.md): it executes the 15-phase iteration of
/// Table 1 on P simulated processors — per-phase computation from the
/// ground-truth cost engine, boundary exchanges and ghost-node updates
/// with the exact message sizing rules of Sections 4.1–4.2, and the
/// collective inventory of Table 4 — over the discrete-event network.
/// Its outputs are the "measured" columns of the validation tables.
class SimKrak {
 public:
  SimKrak(const mesh::InputDeck& deck, const partition::Partition& partition,
          const network::MachineConfig& machine,
          const ComputationCostEngine& costs, SimKrakOptions options = {});

  /// Shares an already computed PartitionStats (e.g. from the campaign
  /// partition cache) instead of rebuilding one from the partition.
  /// `stats` must describe exactly `partition` over `deck`.
  SimKrak(const mesh::InputDeck& deck, const partition::Partition& partition,
          const network::MachineConfig& machine,
          const ComputationCostEngine& costs,
          std::shared_ptr<const partition::PartitionStats> stats,
          SimKrakOptions options);

  /// Run the simulation and aggregate timing results.
  [[nodiscard]] SimKrakResult run() const;

  /// The ops every rank executes, derived on demand from stats() and
  /// one noisy compute time per phase drawn from the rank's own stream
  /// (docs/PERFORMANCE.md, "Schedule construction"). run() simulates a
  /// fresh one. It reads this object's cost engine, which must outlive
  /// it.
  [[nodiscard]] std::unique_ptr<sim::Program> program() const;

  /// The per-PE subgrid statistics the ops are derived from.
  [[nodiscard]] const partition::PartitionStats& stats() const {
    return *stats_;
  }

 private:
  const network::MachineConfig& machine_;
  const ComputationCostEngine& costs_;
  SimKrakOptions options_;
  std::shared_ptr<const partition::PartitionStats> stats_;
};

}  // namespace krak::simapp
