#include "simapp/simkrak.hpp"

#include <memory>
#include <span>
#include <utility>
#include <vector>

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
              "every SimKrak tag must fit an op");

/// Deterministic per-rank noise stream.
std::uint64_t rank_seed(std::uint64_t base, partition::PeId pe) {
  return base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(pe + 1));
}

/// One entry of the iteration every rank runs, in execution order: a
/// single op, or a run of point-to-point ops over the rank's
/// neighbours, as long as the rank's subdomain makes it.
struct Step {
  enum class Kind : std::uint8_t {
    kCompute,
    kBroadcast,
    kGather,
    kAllreduce,
    kWaitAllSends,
    kRecord,
    /// The boundary exchange's messages (Section 4.1), neighbour by
    /// neighbour.
    kBoundary,
    /// One ghost-node update message per neighbour (Section 4.2).
    kGhost,
  };
  Kind kind = Kind::kCompute;
  /// 1-based phase number.
  std::int32_t phase = 0;
  /// A collective's payload, or a ghost update's bytes per node.
  double bytes = 0.0;
  /// A run of messages posts sends; otherwise it blocks on receives.
  bool sends = false;
};

/// The 15 phases of Table 1 as steps, shared by every rank.
const std::vector<Step>& iteration_steps() {
  static const std::vector<Step> steps = [] {
    std::vector<Step> out;
    for (const PhaseSpec& phase : iteration_phases()) {
      const auto add = [&out, &phase](Step::Kind kind, double bytes = 0.0,
                                      bool sends = false) {
        out.push_back({kind, phase.number, bytes, sends});
      };
      // Computation: a noisy "measurement" of the ground-truth phase
      // time, scaled by the machine's compute speed.
      add(Step::Kind::kCompute);
      switch (phase.action) {
        case PhaseAction::kBroadcastPair:
          add(Step::Kind::kBroadcast, 4.0);
          add(Step::Kind::kBroadcast, 8.0);
          break;
        case PhaseAction::kBoundaryExchange:
          // Post every asynchronous send first, make sure the sends
          // completed, then post the blocking receives (Section 4's
          // protocol).
          add(Step::Kind::kBroadcast, 4.0);
          add(Step::Kind::kBroadcast, 8.0);
          add(Step::Kind::kBoundary, 0.0, /*sends=*/true);
          add(Step::Kind::kWaitAllSends);
          add(Step::Kind::kBoundary);
          add(Step::Kind::kGather, 32.0);
          break;
        case PhaseAction::kGhostUpdate8:
        case PhaseAction::kGhostUpdate16:
          add(Step::Kind::kGhost, phase.ghost_bytes(), /*sends=*/true);
          add(Step::Kind::kWaitAllSends);
          add(Step::Kind::kGhost, phase.ghost_bytes());
          break;
        case PhaseAction::kComputationOnly:
          break;
      }
      // The global reductions separating phases (Table 1 sync points).
      for (double size : phase.sync_sizes) add(Step::Kind::kAllreduce, size);
      // All ranks leave the final allreduce at the same simulated time,
      // so this marker is a globally consistent phase boundary.
      add(Step::Kind::kRecord);
    }
    return out;
  }();
  return steps;
}

/// The first material group at or after `group` with faces on
/// `boundary`, or kExchangeGroupCount, the final all-materials step.
std::uint8_t next_group(const partition::NeighborBoundary& boundary,
                        std::size_t group) {
  while (group < mesh::kExchangeGroupCount &&
         boundary.faces_per_group[group] == 0) {
    ++group;
  }
  return static_cast<std::uint8_t>(group);
}

/// SimKrak's ops, derived on demand: each is a pure function of the
/// rank's SubdomainInfo, its place in the iteration and one noisy
/// compute time per phase (docs/PERFORMANCE.md, "Schedule
/// construction"). Each rank keeps a cursor that the engines' in-order
/// reads advance one op at a time, and draws its compute times the
/// first time it is read, so only the shard stepping a rank touches its
/// state.
class KrakProgram final : public sim::Program {
 public:
  KrakProgram(std::shared_ptr<const partition::PartitionStats> stats,
              const ComputationCostEngine& costs, double compute_speedup,
              const SimKrakOptions& options)
      : stats_(std::move(stats)),
        subdomains_(stats_->subdomains()),
        steps_(iteration_steps()),
        costs_(costs),
        compute_speedup_(compute_speedup),
        iterations_(options.iterations),
        noise_seed_(options.noise_seed),
        enable_noise_(options.enable_noise),
        cursors_(subdomains_.size()),
        durations_(cursors_.size() * static_cast<std::size_t>(iterations_) *
                   kPhaseCount) {
    // One iteration's ops: one per single-op step, plus each run of
    // messages at the rank's length.
    std::size_t single_ops = 0;
    std::size_t boundary_runs = 0;
    std::size_t ghost_runs = 0;
    for (const Step& step : steps_) {
      switch (step.kind) {
        case Step::Kind::kBoundary:
          ++boundary_runs;
          break;
        case Step::Kind::kGhost:
          ++ghost_runs;
          break;
        default:
          ++single_ops;
      }
    }
    for (std::size_t pe = 0; pe < cursors_.size(); ++pe) {
      const partition::SubdomainInfo& sub = subdomains_[pe];
      std::size_t boundary_messages = 0;
      for (const partition::NeighborBoundary& boundary : sub.neighbors) {
        // One step per material group present on the boundary, plus
        // the final step over all faces.
        std::size_t steps = 1;
        for (const std::int64_t faces : boundary.faces_per_group) {
          if (faces != 0) ++steps;
        }
        boundary_messages += steps * kBoundaryMessagesPerStep;
      }
      cursors_[pe].iteration_ops = single_ops +
                                   boundary_runs * boundary_messages +
                                   ghost_runs * sub.neighbors.size();
    }
  }

  [[nodiscard]] std::int32_t ranks() const override {
    return static_cast<std::int32_t>(cursors_.size());
  }

  [[nodiscard]] std::size_t size(sim::RankId rank) const override {
    return cursors_[static_cast<std::size_t>(rank)].iteration_ops *
           static_cast<std::size_t>(iterations_);
  }

  [[nodiscard]] sim::Op op(sim::RankId rank, std::size_t pc) override {
    Cursor& cursor = cursors_[static_cast<std::size_t>(rank)];
    const partition::SubdomainInfo& sub =
        subdomains_[static_cast<std::size_t>(rank)];
    if (cursor.drawn && pc == cursor.pc + 1) {
      advance(sub, cursor);
    } else if (!cursor.drawn || pc != cursor.pc) {
      seek(rank, sub, cursor, pc);
    }
    return decode(rank, sub, cursor);
  }

 private:
  /// A rank's place in its ops: op `pc` is step `step` of iteration
  /// `iteration`, and inside a run of messages the one to neighbour
  /// `neighbor`; a boundary exchange's message is message `message` of
  /// exchange step `group`.
  struct Cursor {
    std::size_t pc = 0;
    /// Ops of one iteration, fixed by the rank's subdomain.
    std::size_t iteration_ops = 0;
    std::int32_t iteration = 0;
    std::uint32_t neighbor = 0;
    std::uint16_t step = 0;
    std::uint8_t group = 0;
    std::uint8_t message = 0;
    /// The rank's compute times are drawn and the cursor placed.
    bool drawn = false;
  };

  /// Random access: draws the rank's compute times on its first read,
  /// then walks from the start of `pc`'s iteration. O(ops per
  /// iteration); in-order reads reach it once per rank.
  void seek(sim::RankId rank, const partition::SubdomainInfo& sub,
            Cursor& cursor, std::size_t pc) {
    if (!cursor.drawn) {
      draw(rank, sub);
      cursor.drawn = true;
    }
    cursor.iteration = static_cast<std::int32_t>(pc / cursor.iteration_ops);
    cursor.pc = pc - pc % cursor.iteration_ops;
    cursor.step = 0;  // the first phase's compute op
    while (cursor.pc < pc) advance(sub, cursor);
  }

  /// Moves the cursor to the next op: the next message of its run, or
  /// the first op of the next step this rank does not skip.
  void advance(const partition::SubdomainInfo& sub, Cursor& cursor) const {
    ++cursor.pc;
    switch (steps_[cursor.step].kind) {
      case Step::Kind::kBoundary:
        if (next_boundary_message(sub, cursor)) return;
        break;
      case Step::Kind::kGhost:
        if (++cursor.neighbor < sub.neighbors.size()) return;
        break;
      default:
        break;
    }
    do {
      if (++cursor.step == steps_.size()) {
        cursor.step = 0;
        ++cursor.iteration;
      }
    } while (!enter_step(sub, cursor));
  }

  /// Places the cursor on its step's first op; false for a run of
  /// messages on a rank with no neighbour, which skips the step.
  bool enter_step(const partition::SubdomainInfo& sub, Cursor& cursor) const {
    cursor.neighbor = 0;
    cursor.message = 0;
    switch (steps_[cursor.step].kind) {
      case Step::Kind::kBoundary:
        if (sub.neighbors.empty()) return false;
        cursor.group = next_group(sub.neighbors.front(), 0);
        return true;
      case Step::Kind::kGhost:
        return !sub.neighbors.empty();
      default:
        return true;
    }
  }

  /// Moves the cursor to the boundary exchange's next message: six per
  /// exchange step, one step per material group with faces on the
  /// boundary and then the final step, neighbour by neighbour. False
  /// past the last message.
  static bool next_boundary_message(const partition::SubdomainInfo& sub,
                                    Cursor& cursor) {
    if (++cursor.message < kBoundaryMessagesPerStep) return true;
    cursor.message = 0;
    if (cursor.group < mesh::kExchangeGroupCount) {
      cursor.group =
          next_group(sub.neighbors[cursor.neighbor], cursor.group + 1u);
      return true;
    }
    if (++cursor.neighbor == sub.neighbors.size()) return false;
    cursor.group = next_group(sub.neighbors[cursor.neighbor], 0);
    return true;
  }

  /// The op the cursor is at.
  [[nodiscard]] sim::Op decode(sim::RankId rank,
                               const partition::SubdomainInfo& sub,
                               const Cursor& cursor) const {
    const Step& step = steps_[cursor.step];
    const std::int32_t phase_slot =
        cursor.iteration * kPhaseCount + (step.phase - 1);
    switch (step.kind) {
      case Step::Kind::kCompute:
        return sim::Op::compute(
            durations_[first_duration(rank) +
                       static_cast<std::size_t>(phase_slot)]);
      case Step::Kind::kBroadcast:
        return sim::Op::broadcast(step.bytes);
      case Step::Kind::kGather:
        return sim::Op::gather(step.bytes);
      case Step::Kind::kAllreduce:
        return sim::Op::allreduce(step.bytes);
      case Step::Kind::kWaitAllSends:
        return sim::Op::wait_all_sends();
      case Step::Kind::kRecord:
        return sim::Op::record(phase_slot);
      case Step::Kind::kBoundary: {
        // Face counts and the ghost-node augmentation are canonical per
        // PE pair, so both sides agree on every message size and tag.
        const partition::NeighborBoundary& boundary =
            sub.neighbors[cursor.neighbor];
        double bytes = 0.0;
        if (cursor.group < mesh::kExchangeGroupCount) {
          bytes = kBoundaryBytesPerFace *
                  static_cast<double>(boundary.faces_per_group[cursor.group]);
          if (cursor.message < kBoundaryAugmentedMessages) {
            bytes += kBoundaryBytesPerFace *
                     static_cast<double>(
                         boundary.multi_material_nodes_per_group[cursor.group]);
          }
        } else {
          bytes = kBoundaryBytesPerFace *
                  static_cast<double>(boundary.total_faces);
        }
        const std::int32_t tag =
            make_tag(step.phase, cursor.group, cursor.message);
        return step.sends ? sim::Op::isend(boundary.neighbor, bytes, tag)
                          : sim::Op::recv(boundary.neighbor, bytes, tag);
      }
      case Step::Kind::kGhost: {
        // The locally-owned ghost nodes go out, the remotely-owned ones
        // come in (Section 4.2). Ownership is globally consistent, so my
        // "local" count equals the neighbor's "remote" count for this
        // boundary.
        const partition::NeighborBoundary& boundary =
            sub.neighbors[cursor.neighbor];
        const std::int32_t tag = make_tag(step.phase, 0, 0);
        if (step.sends) {
          return sim::Op::isend(
              boundary.neighbor,
              step.bytes * static_cast<double>(boundary.ghost_nodes_local),
              tag);
        }
        return sim::Op::recv(
            boundary.neighbor,
            step.bytes * static_cast<double>(boundary.ghost_nodes_remote), tag);
      }
    }
    throw util::InternalError("unknown SimKrak step");
  }

  /// Every compute time of the rank in the order it reads them,
  /// iteration by iteration and phase by phase, drawn from the rank's
  /// own noise stream.
  void draw(sim::RankId rank, const partition::SubdomainInfo& sub) {
    util::Rng rng(rank_seed(noise_seed_, rank));
    const std::span<const std::int64_t, mesh::kMaterialCount> cells(
        sub.cells_per_material);
    double* time = durations_.data() + first_duration(rank);
    for (std::int32_t iter = 0; iter < iterations_; ++iter) {
      for (const PhaseSpec& phase : iteration_phases()) {
        double compute_time =
            enable_noise_
                ? costs_.measured_subgrid_time(phase.number, cells, rng)
                : costs_.subgrid_time(phase.number, cells);
        compute_time /= compute_speedup_;
        *time++ = compute_time;
      }
    }
  }

  /// Index of the rank's first compute time in durations_.
  [[nodiscard]] std::size_t first_duration(sim::RankId rank) const {
    return static_cast<std::size_t>(rank) *
           static_cast<std::size_t>(iterations_) * kPhaseCount;
  }

  /// Owns the subdomains_ the ops are derived from.
  std::shared_ptr<const partition::PartitionStats> stats_;
  const std::vector<partition::SubdomainInfo>& subdomains_;
  const std::vector<Step>& steps_;
  const ComputationCostEngine& costs_;
  double compute_speedup_;
  std::int32_t iterations_;
  std::uint64_t noise_seed_;
  bool enable_noise_;
  std::vector<Cursor> cursors_;
  /// cursors_.size() x iterations_ x kPhaseCount compute seconds, a
  /// rank's slice written by its first read.
  std::vector<double> durations_;
};

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
    : machine_(machine),
      costs_(costs),
      options_(options),
      stats_(std::move(stats)) {
  util::check(stats_ != nullptr, "stats must not be null");
  util::check(options_.iterations >= 1, "iterations must be >= 1");
  util::check(partition.parts() <= machine_.total_pes(),
              "partition uses more PEs than the machine has");
  util::check(stats_->parts() == partition.parts(),
              "stats must describe the partition");
}

std::unique_ptr<sim::Program> SimKrak::program() const {
  return std::make_unique<KrakProgram>(stats_, costs_,
                                       machine_.compute_speedup, options_);
}

SimKrakResult SimKrak::run() const {
  std::unique_ptr<sim::Program> ops_program;
  {
    // Timed apart from the simulation it feeds, and counted in ops
    // (docs/OBSERVABILITY.md).
    static obs::Timer& build_timer =
        obs::global_registry().timer("simapp.schedule_build.seconds");
    static obs::Counter& op_counter =
        obs::global_registry().counter("simapp.schedule.ops");
    const obs::ScopedTimer timed(build_timer);
    ops_program = program();
    std::int64_t ops = 0;
    for (sim::RankId rank = 0; rank < ops_program->ranks(); ++rank) {
      ops += static_cast<std::int64_t>(ops_program->size(rank));
    }
    op_counter.add(ops);
  }
  const std::int32_t ranks = ops_program->ranks();
  sim::SimConfig sim_config;
  sim_config.threads = options_.sim_threads;
  sim_config.max_sim_seconds = options_.faults.max_sim_seconds;
  sim::Simulator simulator(*ops_program, machine_.network, sim_config);
  if (options_.nic_contention && machine_.pes_per_node > 1) {
    sim::NicConfig nic;
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
  // A non-empty fault plan installs the injection engine; an empty plan
  // leaves the simulator untouched so the run is bit-identical to one
  // without the fault subsystem.
  std::unique_ptr<fault::InjectionEngine> injector;
  if (!options_.faults.empty()) {
    injector = std::make_unique<fault::InjectionEngine>(options_.faults, ranks,
                                                        kPhaseCount);
    simulator.set_fault_injector(injector.get());
  }
  if (options_.cancel != nullptr) simulator.set_cancellation(options_.cancel);
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
  // Every rank records slots in strictly increasing order, so the
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
