#include "sim/simulator.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace krak::sim {

using util::check;
using util::require_internal;

/// Events between cooperative cancellation checks in the serial engine.
constexpr std::size_t kCancellationCheckInterval = 4096;

namespace {

/// Names `op` as the op a failure stopped at. Only a message has a peer
/// and a tag to report; a kRecord op's slot shares the peer field.
void name_op(SimFailure& failure, const Op& op) {
  failure.has_op = true;
  failure.op = op.kind();
  if (op.kind() == OpKind::kIsend || op.kind() == OpKind::kRecv) {
    failure.peer = op.peer();
    failure.tag = op.tag();
  }
}

}  // namespace

std::string_view op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kCompute: return "compute";
    case OpKind::kIsend: return "isend";
    case OpKind::kWaitAllSends: return "wait_all_sends";
    case OpKind::kRecv: return "recv";
    case OpKind::kAllreduce: return "allreduce";
    case OpKind::kBroadcast: return "broadcast";
    case OpKind::kGather: return "gather";
    case OpKind::kRecord: return "record";
  }
  return "unknown";
}

std::string_view sim_failure_kind_name(SimFailure::Kind kind) {
  switch (kind) {
    case SimFailure::Kind::kDeadlock: return "deadlock";
    case SimFailure::Kind::kLostMessage: return "lost-message";
    case SimFailure::Kind::kTimeLimit: return "time-limit";
    case SimFailure::Kind::kEventLimit: return "event-limit";
    case SimFailure::Kind::kDeadline: return "deadline";
  }
  return "unknown";
}

double RecordLog::at(std::int32_t slot) const {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->first == slot) return it->second;
  }
  throw util::KrakError("record slot " + std::to_string(slot) +
                        " was never captured");
}

std::string SimFailure::to_string() const {
  // Fixed wording: campaign error texts and log greps read it.
  std::ostringstream os;
  switch (kind) {
    case Kind::kDeadlock:
    case Kind::kLostMessage:
      os << "simulation deadlock: rank " << rank << " blocked at op "
         << op_index;
      break;
    case Kind::kTimeLimit:
      os << "simulation watchdog: rank " << rank << " passed the "
         << "simulated-time bound at op " << op_index;
      break;
    case Kind::kEventLimit:
      // Run-level, not per-rank.
      os << "event queue exceeded max_events (runaway?)";
      break;
    case Kind::kDeadline:
      os << "simulation cancelled";
      break;
  }
  if (has_op) {
    os << " (" << op_kind_name(op);
    if (op == OpKind::kRecv || op == OpKind::kIsend) {
      os << ", peer " << peer << ", tag " << tag;
    }
    os << ")";
  }
  if (!detail.empty()) os << " " << detail;
  return os.str();
}

Simulator::Simulator(Program& program, network::MessageCostModel network,
                     SimConfig config)
    : network_(network),
      collectives_(network),
      config_(config),
      program_(program),
      ranks_(program.ranks()) {
  check(ranks_ > 0, "Simulator requires at least one rank");
}

void Simulator::check_op(RankId rank, const Op& op) const {
  // One predictable branch per rule: every op a rank executes passes
  // through here.
  switch (op.kind()) {
    case OpKind::kIsend:
    case OpKind::kRecv:
      KRAK_REQUIRE(op.peer() >= 0 && op.peer() < ranks(),
                   "op peer out of range");
      KRAK_REQUIRE(op.peer() != rank, "self-messages are not supported");
      [[fallthrough]];
    case OpKind::kAllreduce:
    case OpKind::kBroadcast:
    case OpKind::kGather:
      KRAK_REQUIRE(op.bytes() >= 0.0, "message size must be non-negative");
      break;
    case OpKind::kCompute:
      KRAK_REQUIRE(op.duration() >= 0.0,
                   "compute duration must be non-negative");
      break;
    case OpKind::kWaitAllSends:
    case OpKind::kRecord:
      break;
  }
}

void Simulator::set_nic(NicConfig nic) {
  check(nic.pes_per_node > 0, "NIC pes_per_node must be positive");
  check(nic.injection_bandwidth > 0.0,
        "NIC injection bandwidth must be positive");
  nic_ = nic;
}

void Simulator::set_pair_network(
    std::shared_ptr<const network::HierarchicalNetwork> network) {
  if (network != nullptr) {
    check(network->placement().pes() >= ranks(),
          "hierarchical placement must cover every rank");
  }
  hierarchy_ = std::move(network);
}

void Simulator::set_fault_injector(FaultInjector* injector) {
  fault_ = injector;
}

void Simulator::set_cancellation(const util::CancellationToken* token) {
  cancel_ = token;
}

void Simulator::check_cancellation() const {
  if (cancel_ == nullptr || !cancel_->expired()) return;
  SimFailure failure;
  failure.kind = SimFailure::Kind::kDeadline;
  failure.detail = "(" + cancel_->reason() + ")";
  throw SimFailureError(std::move(failure));
}

std::int32_t Simulator::shard_unit() const {
  // Shard boundaries align to SMP-node boundaries: with a hierarchical
  // network cross-shard messages are then exactly the inter-node ones
  // (making the inter-node minimum a valid lookahead), and with the
  // shared-NIC model every node's adapter-availability slot is owned by
  // exactly one shard, so the oracle's injection serialization replays
  // without any cross-shard coordination. Installed together, the unit
  // is the least common multiple of both node sizes.
  std::int32_t unit =
      hierarchy_ != nullptr ? hierarchy_->placement().pes_per_node() : 1;
  if (nic_) unit = std::lcm(unit, nic_->pes_per_node);
  return unit;
}

std::int32_t Simulator::plan_shards() const {
  if (config_.threads <= 1) return 1;
  const std::int32_t unit = shard_unit();
  const std::int32_t units = (ranks() + unit - 1) / unit;
  return std::max(1, std::min(config_.threads, units));
}

SimResult Simulator::run() {
  const std::int32_t shard_count = plan_shards();
  if (shard_count > 1) return run_parallel(shard_count);
  return run_serial();
}

void Simulator::begin_run(SimResult& result) {
  const std::int32_t n = ranks();
  states_.assign(static_cast<std::size_t>(n), RankState{});
  lost_.clear();
  if (fault_ != nullptr) fault_->on_run_start(n);

  result.finish_times.assign(static_cast<std::size_t>(n), 0.0);
  result.breakdown.assign(static_cast<std::size_t>(n), RankTimeBreakdown{});
  result.records.assign(static_cast<std::size_t>(n), {});

  if (nic_) {
    const std::int32_t nodes =
        (n + nic_->pes_per_node - 1) / nic_->pes_per_node;
    nic_free_.assign(static_cast<std::size_t>(nodes), 0.0);
  } else {
    nic_free_.clear();
  }
}

SimResult Simulator::run_serial() {
  const std::int32_t n = ranks();
  SimResult result;
  begin_run(result);
  check_cancellation();

  std::vector<Shard> shards(1);
  Shard& shard = shards.front();
  shard.begin = 0;
  shard.end = n;
  for (RankId r = 0; r < n; ++r) {
    shard.queue.schedule(0.0, SimEvent::step(r));
  }
  // Cancellation checkpoints every few thousand events: cheap enough to
  // be invisible next to dispatch, frequent enough that a blown wall
  // budget surfaces within microseconds, not minutes. Without a token
  // each checkpoint returns at once.
  std::size_t until_check = kCancellationCheckInterval;
  const EventRunStats run_stats = shard.queue.run(
      [this, &shard, &result, &until_check](const SimEvent& event) {
        if (--until_check == 0) {
          until_check = kCancellationCheckInterval;
          check_cancellation();
        }
        dispatch(shard, event, result);
      },
      config_.max_events);
  finalize_run(result, shards, run_stats.budget_exhausted, run_stats.fired);
  return result;
}

void Simulator::finalize_run(SimResult& result, std::vector<Shard>& shards,
                             bool budget_exhausted, std::size_t events_fired) {
  const std::int32_t n = ranks();
  result.events_processed = events_fired;
  std::int64_t nic_stalls = 0;
  for (Shard& shard : shards) {
    nic_stalls += shard.nic_stalls;
    result.max_queue_depth =
        std::max(result.max_queue_depth, shard.queue.max_size());
    result.traffic.point_to_point_messages +=
        shard.traffic.point_to_point_messages;
    result.traffic.allreduces += shard.traffic.allreduces;
    result.traffic.broadcasts += shard.traffic.broadcasts;
    result.traffic.gathers += shard.traffic.gathers;
    result.faults.injections += shard.faults.injections;
    result.faults.retransmits += shard.faults.retransmits;
    result.faults.messages_lost += shard.faults.messages_lost;
    for (const auto& [key, count] : shard.lost) lost_[key] += count;
    for (SimFailure& failure : shard.failures) {
      result.failures.push_back(std::move(failure));
    }
    shard.failures.clear();
  }
  // The order-sensitive float accumulations reduce in rank order in BOTH
  // engines, so the totals are bit-identical regardless of how events
  // interleaved across shards during the run.
  std::uint64_t mailbox_probes = 0;
  for (RankId r = 0; r < n; ++r) {
    const auto index = static_cast<std::size_t>(r);
    mailbox_probes += states_[index].mailbox.probes();
    result.traffic.point_to_point_bytes += states_[index].sent_bytes;
    result.faults.fault_delay_seconds += result.breakdown[index].fault_delay;
    result.faults.recovery_seconds += result.breakdown[index].recovery;
  }

  if (budget_exhausted) {
    SimFailure failure;
    failure.kind = SimFailure::Kind::kEventLimit;
    std::ostringstream os;
    os << "(fired " << events_fired << " event(s), budget "
       << config_.max_events << ")";
    failure.detail = os.str();
    result.failures.push_back(std::move(failure));
  }

  for (RankId r = 0; r < n; ++r) {
    const RankState& state = states_[static_cast<std::size_t>(r)];
    // When the event budget tripped, unfinished ranks were stopped by
    // the guard, not by a hang — skip the per-rank deadlock diagnosis.
    if (!state.finished && !state.timed_out && !budget_exhausted) {
      result.failures.push_back(diagnose_stuck_rank(r));
    }
    // A failed rank's finish time is the clock where it stuck; its
    // breakdown still sums to that clock exactly.
    result.finish_times[static_cast<std::size_t>(r)] = state.clock;
    result.makespan = std::max(result.makespan, state.clock);
  }

  // Canonical failure order — run-level diagnoses (rank -1) first, then
  // by (rank, op index, kind) — so the list is identical whichever
  // engine, thread count, or event interleave produced it.
  std::stable_sort(result.failures.begin(), result.failures.end(),
                   [](const SimFailure& a, const SimFailure& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.op_index != b.op_index) {
                       return a.op_index < b.op_index;
                     }
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });

  // Run-level probes only — nothing per-op or per-event, so the
  // simulator's hot loop stays instrumentation-free.
  obs::Registry& registry = obs::global_registry();
  static obs::Counter& runs = registry.counter("sim.runs");
  static obs::Counter& events = registry.counter("sim.events");
  static obs::Counter& probes = registry.counter("sim.mailbox.probes");
  static obs::Counter& messages = registry.counter("sim.p2p_messages");
  static obs::Counter& stalls = registry.counter("sim.nic.stalls");
  runs.add(1);
  events.add(static_cast<std::int64_t>(result.events_processed));
  probes.add(static_cast<std::int64_t>(mailbox_probes));
  messages.add(result.traffic.point_to_point_messages);
  stalls.add(nic_stalls);
  if (fault_ != nullptr) {
    static obs::Counter& injections = registry.counter("fault.injections");
    static obs::Counter& retransmits = registry.counter("fault.retransmits");
    static obs::Counter& lost = registry.counter("fault.lost_messages");
    static obs::Counter& failures = registry.counter("fault.sim_failures");
    injections.add(result.faults.injections);
    retransmits.add(result.faults.retransmits);
    lost.add(result.faults.messages_lost);
    failures.add(static_cast<std::int64_t>(result.failures.size()));
  }
}

SimFailure Simulator::diagnose_stuck_rank(RankId rank) {
  const RankState& state = states_[static_cast<std::size_t>(rank)];
  SimFailure failure;
  failure.rank = rank;
  // Report the op the rank actually blocked on: enter_collective
  // advances pc past the collective before parking the rank, so pc
  // would misname the op (or point past the schedule's end).
  failure.op_index = state.blocked ? state.blocked_op : state.pc;
  if (failure.op_index < program_.size(rank)) {
    const Op op = program_.op(rank, failure.op_index);
    name_op(failure, op);
    if (op.kind() == OpKind::kRecv) {
      const auto it = lost_.find({op.peer(), rank, op.tag()});
      if (it != lost_.end() && it->second > 0) {
        failure.kind = SimFailure::Kind::kLostMessage;
        std::ostringstream os;
        os << "waiting for a message lost by the fault plan (" << it->second
           << " loss(es) from peer " << op.peer() << ", tag " << op.tag()
           << ", retransmit budget exhausted)";
        failure.detail = os.str();
      }
    }
  }
  if (state.reason == BlockReason::kCollectiveWait) {
    failure.detail = "waiting for all ranks to enter the collective";
  }
  return failure;
}

void Simulator::dispatch(Shard& shard, const SimEvent& event,
                         SimResult& result) {
  switch (event.kind) {
    case EventKind::kStepRank: {
      step_rank(shard, event.rank, result);
      break;
    }
    case EventKind::kMessageArrival: {
      RankState& receiver = states_[static_cast<std::size_t>(event.rank)];
      // The payload's true arrival time is the event's fire time.
      receiver.mailbox.push(shard.mailbox_pool, event.peer, event.tag,
                            shard.queue.now());
      // Only a recv-blocked rank can make progress on delivery; a rank
      // waiting inside a collective must stay parked until the
      // collective completes.
      if (receiver.blocked && receiver.reason == BlockReason::kRecvWait) {
        step_rank(shard, event.rank, result);
      }
      break;
    }
  }
}

void Simulator::step_rank(Shard& shard, RankId rank, SimResult& result) {
  RankState& state = states_[static_cast<std::size_t>(rank)];
  if (state.finished || state.timed_out) return;
  state.blocked = false;
  state.reason = BlockReason::kNone;
  const std::size_t op_count = program_.size(rank);
  RankTimeBreakdown& breakdown =
      result.breakdown[static_cast<std::size_t>(rank)];

  const auto trip_time_limit = [&]() {
    SimFailure failure;
    failure.kind = SimFailure::Kind::kTimeLimit;
    failure.rank = rank;
    failure.op_index = state.pc;
    if (state.pc < op_count) name_op(failure, program_.op(rank, state.pc));
    std::ostringstream os;
    os << "(clock " << state.clock << " s > bound " << config_.max_sim_seconds
       << " s)";
    failure.detail = os.str();
    shard.failures.push_back(std::move(failure));
    state.timed_out = true;
  };

  while (state.pc < op_count && !state.blocked) {
    if (config_.max_sim_seconds > 0.0 &&
        state.clock > config_.max_sim_seconds) {
      // The rank ran past the simulated-time bound: stop executing its
      // ops and report structurally. The run keeps draining so the
      // other ranks' timings stay meaningful.
      trip_time_limit();
      return;
    }
    const Op op = program_.op(rank, state.pc);
    check_op(rank, op);
    switch (op.kind()) {
      case OpKind::kCompute: {
        if (fault_ != nullptr) {
          const double recovery =
              fault_->recovery_delay(rank, state.compute_index, state.clock);
          if (recovery > 0.0) {
            state.clock += recovery;
            breakdown.recovery += recovery;
            ++shard.faults.injections;
          }
          const double extra =
              fault_->compute_delay(rank, state.compute_index, op.duration());
          if (extra > 0.0) {
            state.clock += extra;
            breakdown.fault_delay += extra;
            ++shard.faults.injections;
          }
          ++state.compute_index;
        }
        state.clock += op.duration();
        breakdown.compute += op.duration();
        ++state.pc;
        break;
      }
      case OpKind::kIsend: {
        state.clock += config_.send_overhead;
        breakdown.send_overhead += config_.send_overhead;
        // Shared-NIC injection: payloads from one node's ranks
        // serialize at the adapter. The serialization delays the wire
        // transfer, not the sender's CPU (asynchronous send).
        double inject_at = state.clock;
        double injected_by = state.clock;
        if (nic_) {
          // Shard-local under the parallel engine: shard boundaries
          // align to NIC-node boundaries (shard_unit), so this node's
          // slot is touched by no other worker, and events fire in true
          // time order per shard, so the updates replay the oracle's.
          const auto node =
              static_cast<std::size_t>(rank / nic_->pes_per_node);
          if (nic_free_[node] > inject_at) {
            inject_at = nic_free_[node];
            ++shard.nic_stalls;
          }
          injected_by = inject_at + op.bytes() / nic_->injection_bandwidth;
          nic_free_[node] = injected_by;
        }
        // The hierarchical pair network, when installed, costs one
        // predictable branch per message here (bench/sim_hot_loop).
        double wire_time =
            hierarchy_ != nullptr
                ? hierarchy_->message_time(rank, op.peer(), op.bytes())
                : network_.message_time(op.bytes());
        const std::int64_t send_ordinal = state.send_index++;
        FaultInjector::MessageFate fate;
        if (fault_ != nullptr) {
          fate =
              fault_->message_fate(rank, op.peer(), op.bytes(), send_ordinal);
          wire_time *= fate.bandwidth_factor;
          if (fate.extra_delay > 0.0 || fate.lost ||
              fate.bandwidth_factor != 1.0) {
            ++shard.faults.injections;
          }
          shard.faults.retransmits += fate.retransmits;
        }
        // The payload cannot finish arriving before it finished leaving
        // the adapter.
        const double arrival =
            std::max(inject_at + wire_time, injected_by) + fate.extra_delay;
        // The send completes locally once the payload is handed to the
        // NIC (one start-up latency), not when it arrives remotely.
        const double handoff =
            hierarchy_ != nullptr
                ? hierarchy_->latency(rank, op.peer(), op.bytes())
                : network_.latency(op.bytes());
        state.last_send_completion =
            std::max(state.last_send_completion, inject_at + handoff);
        ++shard.traffic.point_to_point_messages;
        state.sent_bytes += op.bytes();
        const RankId to = op.peer();
        const std::int32_t tag = op.tag();
        if (fate.lost) {
          // Retries exhausted: the payload never arrives. The sender's
          // local completion is unaffected (asynchronous send); the
          // starved receiver is diagnosed at drain time.
          ++shard.faults.messages_lost;
          ++shard.lost[{rank, to, tag}];
          ++state.pc;
          break;
        }
        if (!shard.owns(to)) {
          // Bucketed by destination shard so the barrier's apply work
          // parallelizes per destination queue.
          shard.outboxes[static_cast<std::size_t>(
                             shard.shard_of[static_cast<std::size_t>(to)])]
              .push_back({arrival, rank, to, tag, send_ordinal});
          ++shard.outbound_count;
        } else {
          // The arrival never precedes the shard queue's clock: this
          // rank's clock is at or past the event time that woke it, and
          // the arrival is at or past the clock. Firing every event at
          // its true time is what keeps per-shard send order — and so
          // the shard-local NIC state — identical to the oracle's.
          shard.queue.schedule(arrival, SimEvent::arrival(to, rank, tag));
        }
        ++state.pc;
        break;
      }
      case OpKind::kWaitAllSends: {
        const double before = state.clock;
        state.clock = std::max(state.clock, state.last_send_completion);
        breakdown.send_wait += state.clock - before;
        ++state.pc;
        break;
      }
      case OpKind::kRecv: {
        double arrival = 0.0;
        if (!state.mailbox.try_pop(shard.mailbox_pool, op.peer(), op.tag(),
                                   &arrival)) {
          state.blocked = true;
          state.reason = BlockReason::kRecvWait;
          state.blocked_op = state.pc;
          break;
        }
        if (arrival > state.clock) {
          breakdown.recv_wait += arrival - state.clock;
        }
        state.clock = std::max(state.clock, arrival) + config_.recv_overhead;
        breakdown.recv_overhead += config_.recv_overhead;
        ++state.pc;
        break;
      }
      case OpKind::kAllreduce:
      case OpKind::kBroadcast:
      case OpKind::kGather: {
        enter_collective(shard, rank, op, result);
        break;
      }
      case OpKind::kRecord: {
        result.records[static_cast<std::size_t>(rank)].append(op.slot(),
                                                              state.clock);
        ++state.pc;
        break;
      }
    }
  }
  if (state.pc >= op_count && !state.blocked) {
    if (config_.max_sim_seconds > 0.0 &&
        state.clock > config_.max_sim_seconds) {
      // The loop-head check only sees the clock before each op, so a
      // rank whose final ops push it past the bound would finish
      // silently. Re-check before declaring the rank done.
      trip_time_limit();
      return;
    }
    state.finished = true;
  }
}

void Simulator::CollectiveState::fold(const CollectiveState& part) {
  if (part.entered == 0) return;
  if (entered == 0) {
    kind = part.kind;
    bytes = part.bytes;
  } else {
    check(kind == part.kind && bytes == part.bytes,
          "mismatched collective sequence across ranks");
  }
  entered += part.entered;
  max_entry = std::max(max_entry, part.max_entry);
}

void Simulator::enter_collective(Shard& shard, RankId rank, const Op& op,
                                 SimResult& result) {
  RankState& state = states_[static_cast<std::size_t>(rank)];
  // pc moves past the collective now so the release resumes at the next
  // op; blocked_op keeps naming the collective for diagnostics.
  state.blocked_op = state.pc;
  ++state.pc;
  state.blocked = true;
  state.reason = BlockReason::kCollectiveWait;
  shard.collective.fold({op.kind(), op.bytes(), 1, state.clock});
  // Only the oracle's shard can hold every rank's entry; a parallel
  // shard's fold waits for the epoch barrier (run_parallel).
  if (shard.collective.entered < ranks()) return;
  release_ranks(shard, release_collective(shard.collective, shard.traffic),
                result);
  shard.collective = {};
}

Simulator::CollectiveRelease Simulator::release_collective(
    const CollectiveState& coll, TrafficStats& traffic) const {
  double cost = 0.0;
  switch (coll.kind) {
    case OpKind::kAllreduce:
      cost = collectives_.fan_in_fan_out(ranks(), coll.bytes);
      ++traffic.allreduces;
      break;
    case OpKind::kBroadcast:
      cost = collectives_.fan_out(ranks(), coll.bytes);
      ++traffic.broadcasts;
      break;
    case OpKind::kGather:
      cost = collectives_.fan_in(ranks(), coll.bytes);
      ++traffic.gathers;
      break;
    default:
      require_internal(false, "non-collective op in collective state");
  }
  return {coll.max_entry + cost, cost};
}

void Simulator::release_ranks(Shard& shard, const CollectiveRelease& release,
                              SimResult& result) {
  // The completion never precedes the shard queue's clock: the oracle
  // releases at the last entry, and a parallel shard fired nothing at or
  // past its window's horizon, which a collective's tree cost of at
  // least one flat message time reaches (plan_lookahead).
  for (RankId r = shard.begin; r < shard.end; ++r) {
    RankState& state = states_[static_cast<std::size_t>(r)];
    // The rank's clock froze at its entry time, so the gap to the
    // common completion splits into skew wait (until the last rank
    // entered) plus the tree cost every rank pays.
    RankTimeBreakdown& breakdown =
        result.breakdown[static_cast<std::size_t>(r)];
    breakdown.collective_wait +=
        release.completion - release.cost - state.clock;
    breakdown.collective_cost += release.cost;
    state.clock = std::max(state.clock, release.completion);
    shard.queue.schedule(release.completion, SimEvent::step(r));
  }
}

}  // namespace krak::sim
