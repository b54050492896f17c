#include "simapp/simkrak.hpp"

#include <memory>

#include "fault/injector.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace krak::simapp {

namespace {

/// Unique point-to-point tag per (phase, exchange step, message index).
/// Steps 0..kExchangeGroupCount-1 are the per-material steps; step
/// kExchangeGroupCount is the final all-materials step; ghost updates
/// use step 0.
constexpr std::int32_t make_tag(std::int32_t phase, std::int32_t step,
                                std::int32_t message) {
  return phase * 1000 + step * 100 + message;
}
static_assert(make_tag(kPhaseCount,
                       static_cast<std::int32_t>(mesh::kExchangeGroupCount),
                       kBoundaryMessagesPerStep - 1) <= sim::Op::kMaxTag,
              "every SimKrak tag must fit a schedule op");

/// Deterministic per-rank noise stream.
std::uint64_t rank_seed(std::uint64_t base, partition::PeId pe) {
  return base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(pe + 1));
}

}  // namespace

SimKrak::SimKrak(const mesh::InputDeck& deck,
                 const partition::Partition& partition,
                 const network::MachineConfig& machine,
                 const ComputationCostEngine& costs, SimKrakOptions options)
    : SimKrak(deck, partition, machine, costs,
              std::make_shared<partition::PartitionStats>(deck, partition),
              options) {}

SimKrak::SimKrak(const mesh::InputDeck& /*deck*/,
                 const partition::Partition& partition,
                 const network::MachineConfig& machine,
                 const ComputationCostEngine& costs,
                 std::shared_ptr<const partition::PartitionStats> stats,
                 SimKrakOptions options)
    : partition_(partition),
      machine_(machine),
      costs_(costs),
      options_(options),
      stats_(std::move(stats)) {
  util::check(stats_ != nullptr, "stats must not be null");
  util::check(options_.iterations >= 1, "iterations must be >= 1");
  util::check(partition_.parts() <= machine_.total_pes(),
              "partition uses more PEs than the machine has");
  util::check(stats_->parts() == partition_.parts(),
              "stats must describe the partition");
}

void SimKrak::append_boundary_exchange(
    sim::Schedule& schedule, const partition::SubdomainInfo& sub) const {
  constexpr std::int32_t kPhase = 2;
  // Post every asynchronous send first, make sure the sends completed,
  // then post the blocking receives (Section 4's protocol). Face counts
  // and the ghost-node augmentation are canonical per PE pair, so both
  // sides agree on every message size and tag.
  const auto for_each_message =
      [&](const auto& emit) {
        for (const partition::NeighborBoundary& boundary : sub.neighbors) {
          // One step per material group present on this boundary...
          for (std::size_t g = 0; g < mesh::kExchangeGroupCount; ++g) {
            const std::int64_t faces = boundary.faces_per_group[g];
            if (faces == 0) continue;
            for (std::int32_t msg = 0; msg < kBoundaryMessagesPerStep; ++msg) {
              double bytes = kBoundaryBytesPerFace * static_cast<double>(faces);
              if (msg < kBoundaryAugmentedMessages) {
                bytes += kBoundaryBytesPerFace *
                         static_cast<double>(
                             boundary.multi_material_nodes_per_group[g]);
              }
              emit(boundary.neighbor, bytes,
                   make_tag(kPhase, static_cast<std::int32_t>(g), msg));
            }
          }
          // ...plus the final step over all faces regardless of material.
          for (std::int32_t msg = 0; msg < kBoundaryMessagesPerStep; ++msg) {
            const double bytes =
                kBoundaryBytesPerFace * static_cast<double>(boundary.total_faces);
            emit(boundary.neighbor, bytes,
                 make_tag(kPhase, mesh::kExchangeGroupCount, msg));
          }
        }
      };

  for_each_message([&](partition::PeId peer, double bytes, std::int32_t tag) {
    schedule.push_back(sim::Op::isend(peer, bytes, tag));
  });
  schedule.push_back(sim::Op::wait_all_sends());
  for_each_message([&](partition::PeId peer, double bytes, std::int32_t tag) {
    schedule.push_back(sim::Op::recv(peer, bytes, tag));
  });
}

void SimKrak::append_ghost_update(sim::Schedule& schedule,
                                  const partition::SubdomainInfo& sub,
                                  double bytes_per_node,
                                  std::int32_t phase) const {
  // Two messages per neighbor: the locally-owned ghost nodes go out,
  // the remotely-owned ones come in (Section 4.2). Ownership is
  // globally consistent, so my "local" count equals the neighbor's
  // "remote" count for this boundary.
  for (const partition::NeighborBoundary& boundary : sub.neighbors) {
    schedule.push_back(sim::Op::isend(
        boundary.neighbor,
        bytes_per_node * static_cast<double>(boundary.ghost_nodes_local),
        make_tag(phase, 0, 0)));
  }
  schedule.push_back(sim::Op::wait_all_sends());
  for (const partition::NeighborBoundary& boundary : sub.neighbors) {
    schedule.push_back(sim::Op::recv(
        boundary.neighbor,
        bytes_per_node * static_cast<double>(boundary.ghost_nodes_remote),
        make_tag(phase, 0, 0)));
  }
}

std::size_t SimKrak::boundary_exchange_op_count(
    const partition::SubdomainInfo& sub) {
  std::size_t messages = 0;
  for (const partition::NeighborBoundary& boundary : sub.neighbors) {
    for (std::size_t g = 0; g < mesh::kExchangeGroupCount; ++g) {
      if (boundary.faces_per_group[g] != 0) {
        messages += static_cast<std::size_t>(kBoundaryMessagesPerStep);
      }
    }
    messages += static_cast<std::size_t>(kBoundaryMessagesPerStep);
  }
  return 2 * messages + 1;  // isends + recvs + wait_all_sends
}

std::size_t SimKrak::ghost_update_op_count(
    const partition::SubdomainInfo& sub) {
  return 2 * sub.neighbors.size() + 1;
}

std::size_t SimKrak::iteration_op_count(const partition::SubdomainInfo& sub) {
  std::size_t count = 0;
  for (const PhaseSpec& phase : iteration_phases()) {
    count += 1;  // compute
    switch (phase.action) {
      case PhaseAction::kBroadcastPair:
        count += 2;
        break;
      case PhaseAction::kBoundaryExchange:
        count += 2 + boundary_exchange_op_count(sub) + 1;
        break;
      case PhaseAction::kGhostUpdate8:
      case PhaseAction::kGhostUpdate16:
        count += ghost_update_op_count(sub);
        break;
      case PhaseAction::kComputationOnly:
        break;
    }
    count += phase.sync_sizes.size();
    count += 1;  // record
  }
  return count;
}

sim::Schedule SimKrak::build_schedule(partition::PeId pe) const {
  const partition::SubdomainInfo& sub = stats_->subdomain(pe);
  util::Rng rng(rank_seed(options_.noise_seed, pe));
  const std::size_t op_count =
      iteration_op_count(sub) * static_cast<std::size_t>(options_.iterations);
  sim::Schedule schedule;
  schedule.reserve(op_count);

  const std::span<const std::int64_t, mesh::kMaterialCount> cells(
      sub.cells_per_material);

  for (std::int32_t iter = 0; iter < options_.iterations; ++iter) {
    for (const PhaseSpec& phase : iteration_phases()) {
      // Computation: a noisy "measurement" of the ground-truth phase
      // time, scaled by the machine's compute speed.
      double compute_time =
          options_.enable_noise
              ? costs_.measured_subgrid_time(phase.number, cells, rng)
              : costs_.subgrid_time(phase.number, cells);
      compute_time /= machine_.compute_speedup;
      schedule.push_back(sim::Op::compute(compute_time));

      switch (phase.action) {
        case PhaseAction::kBroadcastPair:
          schedule.push_back(sim::Op::broadcast(4.0));
          schedule.push_back(sim::Op::broadcast(8.0));
          break;
        case PhaseAction::kBoundaryExchange:
          schedule.push_back(sim::Op::broadcast(4.0));
          schedule.push_back(sim::Op::broadcast(8.0));
          append_boundary_exchange(schedule, sub);
          schedule.push_back(sim::Op::gather(32.0));
          break;
        case PhaseAction::kGhostUpdate8:
        case PhaseAction::kGhostUpdate16:
          append_ghost_update(schedule, sub, phase.ghost_bytes(),
                              phase.number);
          break;
        case PhaseAction::kComputationOnly:
          break;
      }

      // The global reductions separating phases (Table 1 sync points).
      for (double size : phase.sync_sizes) {
        schedule.push_back(sim::Op::allreduce(size));
      }
      // All ranks leave the final allreduce at the same simulated time,
      // so this marker is a globally consistent phase boundary.
      schedule.push_back(
          sim::Op::record(iter * kPhaseCount + (phase.number - 1)));
    }
  }
  // An inexact reserve would make every rank's schedule reallocate.
  util::require_internal(schedule.size() == op_count,
                         "iteration op count drifted from the builder");
  return schedule;
}

SimKrakResult SimKrak::run() const {
  const std::int32_t ranks = partition_.parts();
  sim::SimConfig sim_config;
  sim_config.threads = options_.sim_threads;
  sim::Simulator simulator(ranks, machine_.network, sim_config);
  if (options_.nic_contention && machine_.pes_per_node > 1) {
    sim::NicConfig nic;
    nic.enabled = true;
    nic.pes_per_node = machine_.pes_per_node;
    // The adapter injects at the interconnect's asymptotic bandwidth.
    nic.injection_bandwidth = 1.0 / machine_.network.byte_cost(1 << 20);
    simulator.set_nic(nic);
  }
  if (options_.hierarchical_network && machine_.pes_per_node > 1) {
    // The concrete overload: sends dispatch into the hierarchy directly
    // (no std::function per message), and the parallel engine derives
    // its lookahead and node-aligned shard boundaries from it.
    simulator.set_pair_network(
        std::make_shared<const network::HierarchicalNetwork>(
            network::make_es45_shared_memory_model(), machine_.network,
            network::Placement(ranks, machine_.pes_per_node)));
  }
  // A non-empty fault plan installs the injection engine and arms the
  // watchdog; an empty plan leaves the simulator untouched so the run
  // is bit-identical to one without the fault subsystem.
  std::unique_ptr<fault::InjectionEngine> injector;
  if (!options_.faults.empty()) {
    injector = std::make_unique<fault::InjectionEngine>(options_.faults, ranks,
                                                        kPhaseCount);
    simulator.set_fault_injector(injector.get());
    simulator.set_watchdog(injector->watchdog());
  }
  if (options_.cancel != nullptr) simulator.set_cancellation(options_.cancel);
  {
    // Timed apart from the simulation it feeds, and counted in ops
    // (docs/OBSERVABILITY.md).
    static obs::Timer& build_timer =
        obs::global_registry().timer("simapp.schedule_build.seconds");
    static obs::Counter& op_counter =
        obs::global_registry().counter("simapp.schedule.ops");
    const obs::ScopedTimer timed(build_timer);
    std::int64_t ops = 0;
    for (partition::PeId pe = 0; pe < ranks; ++pe) {
      sim::Schedule schedule = build_schedule(pe);
      ops += static_cast<std::int64_t>(schedule.size());
      simulator.set_schedule(pe, std::move(schedule));
    }
    op_counter.add(ops);
  }
  sim::SimResult sim_result = simulator.run();

  SimKrakResult result;
  result.ranks = ranks;
  result.total_time = sim_result.makespan;
  result.time_per_iteration =
      sim_result.makespan / static_cast<double>(options_.iterations);
  result.traffic = sim_result.traffic;
  result.events_processed = sim_result.events_processed;
  result.max_queue_depth = sim_result.max_queue_depth;
  result.coordinator_seconds = sim_result.coordinator_seconds;
  // Moved, not copied: at 100k ranks the per-rank breakdown is the
  // result's dominant allocation, and the simulator no longer needs it.
  result.rank_breakdown = std::move(sim_result.breakdown);
  result.fault_stats = sim_result.faults;
  result.failures = std::move(sim_result.failures);
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    result.totals.compute += rank.compute;
    result.totals.send_overhead += rank.send_overhead;
    result.totals.recv_overhead += rank.recv_overhead;
    result.totals.send_wait += rank.send_wait;
    result.totals.recv_wait += rank.recv_wait;
    result.totals.collective_wait += rank.collective_wait;
    result.totals.collective_cost += rank.collective_cost;
    result.totals.fault_delay += rank.fault_delay;
    result.totals.recovery += rank.recovery;
  }

  // Phase boundaries from rank 0's records (identical on all ranks by
  // construction). A failed run may have stopped mid-iteration; average
  // phase times over the iterations that completed, and only insist on
  // a full record set when the run was clean.
  // The schedules record slots in strictly increasing order, so the
  // flat log reads with a single cursor — no per-phase lookup.
  const auto& records = sim_result.records.front().entries();
  std::size_t cursor = 0;
  double previous = 0.0;
  std::array<double, kPhaseCount> sums{};
  std::int32_t recorded_iterations = 0;
  for (std::int32_t iter = 0; iter < options_.iterations; ++iter) {
    bool complete = true;
    for (std::int32_t p = 0; p < kPhaseCount; ++p) {
      const std::int32_t slot = iter * kPhaseCount + p;
      if (cursor >= records.size() || records[cursor].first != slot) {
        util::require_internal(result.failed(),
                               "missing phase boundary record");
        complete = false;
        break;
      }
      sums[static_cast<std::size_t>(p)] += records[cursor].second - previous;
      previous = records[cursor].second;
      ++cursor;
    }
    if (!complete) break;
    ++recorded_iterations;
  }
  if (recorded_iterations > 0) {
    for (std::int32_t p = 0; p < kPhaseCount; ++p) {
      result.phase_times[static_cast<std::size_t>(p)] =
          sums[static_cast<std::size_t>(p)] /
          static_cast<double>(recorded_iterations);
    }
  }
  return result;
}

}  // namespace krak::simapp
