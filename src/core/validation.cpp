#include "core/validation.hpp"

#include <memory>

#include "core/partition_cache.hpp"
#include "partition/stats.hpp"
#include "simapp/simkrak.hpp"

namespace krak::core {

namespace {

/// Simulate `deck` on `pes` processors and return the measured
/// per-iteration time plus the partition used (shared by both
/// validation flavors so measured values are identical for a given
/// configuration).
struct Measurement {
  double time = 0.0;
  std::shared_ptr<const PartitionedDeck> partitioned;
};

Measurement measure(const mesh::InputDeck& deck, std::int32_t pes,
                    const network::MachineConfig& machine,
                    const simapp::ComputationCostEngine& engine,
                    const ValidationConfig& config) {
  util::CancellationToken::check(config.cancel, "validation measurement");
  // The partition and its statistics come from the campaign-level cache
  // (docs/PERFORMANCE.md): runs sharing (deck, pes, seed) reuse one
  // deterministic computation instead of repeating the dominant cost.
  const std::shared_ptr<const PartitionedDeck> partitioned =
      PartitionCache::global().get(deck, pes,
                                   partition::PartitionMethod::kMultilevel,
                                   config.partition_seed, config.cancel);
  simapp::SimKrakOptions options;
  options.iterations = config.iterations;
  options.noise_seed = config.noise_seed;
  options.faults = config.faults;
  options.sim_threads = config.sim_threads;
  options.cancel = config.cancel;
  const simapp::SimKrak app(deck, partitioned->partition, machine, engine,
                            partitioned->stats, options);
  simapp::SimKrakResult result = app.run();
  // A measurement the watchdog had to cut short is not a measurement;
  // surface the structured cause so campaigns can record it per
  // scenario instead of aborting the sweep.
  if (result.failed()) throw sim::SimFailureError(result.failures.front());
  return Measurement{result.time_per_iteration, partitioned};
}

}  // namespace

ValidationPoint validate_mesh_specific(
    const mesh::InputDeck& deck, std::int32_t pes, const KrakModel& model,
    const simapp::ComputationCostEngine& engine,
    const ValidationConfig& config) {
  const Measurement m = measure(deck, pes, model.machine(), engine, config);
  ValidationPoint point;
  point.problem = deck.name();
  point.pes = pes;
  point.measured = m.time;
  point.predicted = model.predict_mesh_specific(*m.partitioned->stats).total();
  return point;
}

ValidationPoint validate_general(const mesh::InputDeck& deck, std::int32_t pes,
                                 const KrakModel& model, GeneralModelMode mode,
                                 const simapp::ComputationCostEngine& engine,
                                 const ValidationConfig& config) {
  const Measurement m = measure(deck, pes, model.machine(), engine, config);
  ValidationPoint point;
  point.problem = deck.name();
  point.pes = pes;
  point.measured = m.time;
  point.predicted =
      model.predict_general(deck.grid().num_cells(), pes, mode).total();
  return point;
}

}  // namespace krak::core
