// Google-benchmark microbenchmarks of the library's computational
// kernels: partitioning, boundary-statistics extraction, model
// evaluation, and the discrete-event simulator. These quantify the
// paper's claim that the general model enables "rapid model evaluation"
// compared with partition-and-simulate.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "hydro/solver.hpp"
#include "obs/metrics.hpp"
#include "partition/stats.hpp"

namespace {

using namespace krak;

void BM_PartitionMultilevel(benchmark::State& state) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const auto pes = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::partition_deck(
        deck, pes, partition::PartitionMethod::kMultilevel, 1));
  }
  state.SetItemsProcessed(state.iterations() * deck.grid().num_cells());
}
BENCHMARK(BM_PartitionMultilevel)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PartitionRcb(benchmark::State& state) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const auto pes = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partition::partition_deck(deck, pes, partition::PartitionMethod::kRcb));
  }
  state.SetItemsProcessed(state.iterations() * deck.grid().num_cells());
}
BENCHMARK(BM_PartitionRcb)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_PartitionStats(benchmark::State& state) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 64, partition::PartitionMethod::kMultilevel, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::PartitionStats(deck, part));
  }
}
BENCHMARK(BM_PartitionStats)->Unit(benchmark::kMillisecond);

void BM_GeneralModelPredict(benchmark::State& state) {
  const auto& env = krakbench::environment();
  std::int32_t pes = 1;
  for (auto _ : state) {
    pes = (pes % 1024) + 1;
    benchmark::DoNotOptimize(
        env.model.predict_general(819200, pes,
                                  core::GeneralModelMode::kHomogeneous));
  }
  // The paper's point: general-model evaluation is microseconds, so
  // whole machine-design sweeps are interactive.
}
BENCHMARK(BM_GeneralModelPredict);

void BM_MeshSpecificPredict(benchmark::State& state) {
  const auto& env = krakbench::environment();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 64, partition::PartitionMethod::kMultilevel, 1);
  const partition::PartitionStats stats(deck, part);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.model.predict_mesh_specific(stats));
  }
}
BENCHMARK(BM_MeshSpecificPredict);

void BM_SimKrakIteration(benchmark::State& state) {
  const auto& env = krakbench::environment();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const auto pes = static_cast<std::int32_t>(state.range(0));
  const partition::Partition part = partition::partition_deck(
      deck, pes, partition::PartitionMethod::kMultilevel, 1);
  const simapp::SimKrak app(deck, part, env.machine, env.engine, {});
  std::size_t events = 0;
  for (auto _ : state) {
    const simapp::SimKrakResult result = app.run();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.time_per_iteration);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimKrakIteration)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_CalibrationMethod2(benchmark::State& state) {
  const auto& env = krakbench::environment();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::calibrate_from_input(env.engine, deck, {16, 64}));
  }
}
BENCHMARK(BM_CalibrationMethod2)->Unit(benchmark::kMillisecond);

// Threaded hydro step. NOTE: thread counts above the host's core count
// cannot speed anything up (this repository's CI host has one core);
// the benchmark then measures the fork/join overhead of the chunked
// loops, which determinism tests guarantee change no results.
void BM_HydroStep(benchmark::State& state) {
  const mesh::InputDeck deck = mesh::make_cylindrical_deck(512, 256);
  hydro::HydroState hydro_state(deck);
  hydro::HydroConfig config;
  config.threads = static_cast<std::int32_t>(state.range(0));
  config.enable_burn = false;
  hydro::HydroSolver solver(hydro_state, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.step());
  }
  state.SetItemsProcessed(state.iterations() * deck.grid().num_cells());
}
BENCHMARK(BM_HydroStep)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Cost of one instrumented scope: two clock reads plus the atomic
// accumulate.
void BM_ScopedTimer(benchmark::State& state) {
  obs::Timer& timer = obs::global_registry().timer("bench.scoped_timer");
  for (auto _ : state) {
    obs::ScopedTimer scope(timer);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_ScopedTimer);

}  // namespace

BENCHMARK_MAIN();
