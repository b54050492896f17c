#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "simapp/costmodel.hpp"
#include "util/cancellation.hpp"

namespace krak::core {

/// One row of a validation table: a measured (SimKrak) iteration time
/// against a model prediction, with the paper's signed error convention
/// (measured - predicted) / measured.
struct ValidationPoint {
  std::string problem;
  std::int32_t pes = 0;
  double measured = 0.0;
  double predicted = 0.0;

  [[nodiscard]] double error() const {
    return (measured - predicted) / measured;
  }
};

/// Settings of a validation run.
struct ValidationConfig {
  std::uint64_t partition_seed = 1;
  std::uint64_t noise_seed = 42;
  std::int32_t iterations = 3;
  /// Accepted and ignored: the partitioner is serial. It stays only
  /// because perfbench/krakperf.cpp still sets it; nothing else may.
  std::int32_t partition_threads = 1;
  /// Worker threads for the simulator's conservative parallel engine
  /// (sim::SimConfig::threads); <= 1 keeps the single-thread oracle.
  /// Never changes a measured value: the parallel engine is
  /// bit-identical to the oracle.
  std::int32_t sim_threads = 1;
  /// Optional fault-injection plan applied to the SimKrak measurement.
  /// If the injected faults make the measurement fail (watchdog fires),
  /// the validate_* functions throw sim::SimFailureError carrying the
  /// first structured failure.
  fault::FaultPlan faults;
  /// Cooperative cancellation token (not owned; must outlive the run).
  /// Checked before partitioning, inside the partition cache, and at
  /// the simulator's event-loop checkpoints; an expired token surfaces
  /// as util::CancelledError or a kDeadline sim::SimFailureError
  /// instead of a hang. Null disables every checkpoint.
  const util::CancellationToken* cancel = nullptr;
};

/// Measure `deck` on `pes` processors with SimKrak (multilevel
/// partition) and predict it with the mesh-specific model (Table 5).
[[nodiscard]] ValidationPoint validate_mesh_specific(
    const mesh::InputDeck& deck, std::int32_t pes, const KrakModel& model,
    const simapp::ComputationCostEngine& engine,
    const ValidationConfig& config = {});

/// Measure with SimKrak and predict with the general model in the given
/// mode (Table 6 and Figure 5).
[[nodiscard]] ValidationPoint validate_general(
    const mesh::InputDeck& deck, std::int32_t pes, const KrakModel& model,
    GeneralModelMode mode, const simapp::ComputationCostEngine& engine,
    const ValidationConfig& config = {});

}  // namespace krak::core
