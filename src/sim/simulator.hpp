#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "network/collectives.hpp"
#include "network/msgmodel.hpp"
#include "network/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/ops.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"

namespace krak::sim {

/// Tunable host-side costs of the simulated MPI layer.
struct SimConfig {
  /// CPU time a rank spends posting one asynchronous send.
  double send_overhead = 0.4e-6;
  /// CPU time a rank spends completing one blocking receive.
  double recv_overhead = 0.4e-6;
  /// Runaway-simulation guard: stop the run once this many events have
  /// fired with events still pending, and return a
  /// SimFailure::Kind::kEventLimit in SimResult::failures. The parallel
  /// engine checks the budget at epoch barriers, so a tripped run may
  /// overshoot the budget by up to one epoch before stopping.
  std::size_t max_events = EventQueue::kDefaultMaxEvents;
  /// Simulated-time bound: a rank whose clock passes it executes no
  /// further op and is returned as a SimFailure::Kind::kTimeLimit;
  /// <= 0 disables. A safety net against fault plans that inject
  /// unbounded delay.
  double max_sim_seconds = 0.0;
  /// Worker threads of the conservative parallel engine; <= 1 keeps the
  /// single-thread oracle (docs/PERFORMANCE.md, "Parallel simulation").
  /// Results are bit-identical across thread counts. The shared-NIC
  /// model runs parallel too: shard boundaries align to NIC-node
  /// boundaries, so each shard owns its nodes' adapter-availability
  /// state outright and the oracle's injection serialization replays
  /// exactly (docs/PERFORMANCE.md, "The 100k-rank regime").
  std::int32_t threads = 1;
};

/// Optional shared-NIC injection model: the ranks of one SMP node share
/// a single network adapter, so their outbound payloads serialize at
/// the adapter's injection bandwidth. Simulator::set_nic installs it;
/// without it injection capacity is infinite, matching the paper's
/// contention-free Tmsg.
struct NicConfig {
  /// Ranks per node sharing one adapter.
  std::int32_t pes_per_node = 4;
  /// Adapter injection bandwidth, bytes per second.
  double injection_bandwidth = 300e6;
};

/// Consulted by the simulator, when installed, to perturb a run with
/// deterministic faults (docs/RESILIENCE.md). The simulator charges the
/// returned delays to the RankTimeBreakdown's `fault_delay` / `recovery`
/// components so the per-rank time identity stays exact; message fates
/// perturb the wire only, so their effect shows up downstream as extra
/// recv_wait / collective_wait (propagated delay), never as a broken
/// identity. `fault::InjectionEngine` is the production implementation.
///
/// Thread-safety contract: the parallel engine (SimConfig::threads) calls
/// these hooks concurrently from worker shards, but always for disjoint
/// rank sets — per-rank mutable state needs no locking; anything shared
/// across ranks does. InjectionEngine keeps all mutable state per rank.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Fate of one point-to-point message.
  struct MessageFate {
    /// Seconds added to the wire arrival time (retransmit timeouts,
    /// injected link delay).
    double extra_delay = 0.0;
    /// Multiplies the wire transfer time (NIC/link degradation); 1 is
    /// healthy, 2 means half the bandwidth.
    double bandwidth_factor = 1.0;
    /// Retransmissions folded into extra_delay (for fault statistics).
    std::int32_t retransmits = 0;
    /// Retries exhausted: the payload never arrives. The receiver's
    /// blocking recv becomes a structured failure at drain time.
    bool lost = false;
  };

  /// Called once at the start of every Simulator::run so stateful
  /// injectors (e.g. noise-burst accumulators) reset deterministically.
  virtual void on_run_start(std::int32_t ranks) = 0;

  /// Extra seconds injected into the `index`-th kCompute op of `rank`
  /// (compute slowdown, OS-noise bursts, one-off delays); charged to
  /// `fault_delay`. `duration` is the op's unperturbed length.
  virtual double compute_delay(RankId rank, std::int64_t index,
                               double duration) = 0;

  /// Checkpoint/restart cost charged to `recovery` immediately before
  /// the `index`-th kCompute op of `rank`; `now` is the rank's clock
  /// (used for rework-since-start when no checkpoint interval is set).
  virtual double recovery_delay(RankId rank, std::int64_t index,
                                double now) = 0;

  /// Perturbation of the `send_index`-th kIsend posted by `from`.
  virtual MessageFate message_fate(RankId from, RankId to, double bytes,
                                   std::int64_t send_index) = 0;
};

/// Structured diagnosis of a run that could not complete. `to_string()`
/// renders the one-line message campaign error texts and log greps
/// read; its wording is fixed.
struct SimFailure {
  enum class Kind : std::uint8_t {
    /// A rank blocked forever (unmatched recv or collective).
    kDeadlock,
    /// A rank blocked receiving a message the fault plan dropped past
    /// its retransmit budget.
    kLostMessage,
    /// SimConfig::max_sim_seconds fired.
    kTimeLimit,
    /// The runaway guard fired: SimConfig::max_events events fired with
    /// events still pending. A run-level diagnosis (rank is -1).
    kEventLimit,
    /// A cooperative cancellation token expired mid-run — a wall-clock
    /// deadline (scenario or campaign budget) or an explicit cancel,
    /// not a simulated-time bound. A run-level diagnosis (rank is -1);
    /// the simulator throws SimFailureError carrying it so the caller
    /// never mistakes a cut-short run for a measurement.
    kDeadline,
  };
  Kind kind = Kind::kDeadlock;
  RankId rank = -1;
  /// Index of the op the rank was executing or blocked on.
  std::size_t op_index = 0;
  /// True when op/peer/tag below describe a real schedule entry.
  bool has_op = false;
  OpKind op = OpKind::kCompute;
  RankId peer = -1;
  std::int32_t tag = 0;
  /// Extra cause context ("waiting for all ranks...", retransmit count).
  std::string detail;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string_view sim_failure_kind_name(SimFailure::Kind kind);

/// Thrown by layers that must abort on a SimFailure (e.g. a validation
/// run whose measurement is meaningless); carries the structured cause
/// so campaign sweeps can record it without parsing the message.
class SimFailureError : public util::KrakError {
 public:
  explicit SimFailureError(SimFailure failure)
      : util::KrakError(failure.to_string()), failure_(std::move(failure)) {}
  [[nodiscard]] const SimFailure& failure() const { return failure_; }

 private:
  SimFailure failure_;
};

/// Injection totals of one simulation run (all zero without a fault
/// injector installed).
struct FaultStats {
  /// Discrete injection events that fired (delays, recoveries, message
  /// perturbations).
  std::int64_t injections = 0;
  /// Point-to-point retransmissions performed.
  std::int64_t retransmits = 0;
  /// Messages dropped past their retransmit budget.
  std::int64_t messages_lost = 0;
  /// Seconds charged to fault_delay, summed over ranks.
  double fault_delay_seconds = 0.0;
  /// Seconds charged to recovery, summed over ranks.
  double recovery_seconds = 0.0;
};

/// Aggregate traffic statistics of one simulation run.
struct TrafficStats {
  std::int64_t point_to_point_messages = 0;
  double point_to_point_bytes = 0.0;
  std::int64_t allreduces = 0;
  std::int64_t broadcasts = 0;
  std::int64_t gathers = 0;
};

/// Flat per-rank log of kRecord captures: (slot, clock) pairs appended
/// in execution order. SimKrak's phase markers record strictly
/// increasing slots, so the log doubles as a sorted array its reader
/// walks with a cursor. Flat storage is what lets 100k-rank results fit:
/// the node-based map this replaced cost ~3 heap allocations and ~100
/// bytes of overhead per capture (docs/PERFORMANCE.md, "The 100k-rank
/// regime").
class RecordLog {
 public:
  void append(std::int32_t slot, double clock) {
    entries_.push_back({slot, clock});
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Clock of the most recent capture of `slot` (last write wins,
  /// matching the map semantics this replaced); throws KrakError when
  /// the slot was never recorded. A linear scan — lookup convenience
  /// for tests and tools, not a hot path.
  [[nodiscard]] double at(std::int32_t slot) const;
  [[nodiscard]] const std::vector<std::pair<std::int32_t, double>>& entries()
      const {
    return entries_;
  }
  friend bool operator==(const RecordLog& a, const RecordLog& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<std::pair<std::int32_t, double>> entries_;
};

/// Where one rank's simulated time went, split so the components sum
/// exactly to the rank's finish time:
///
///   finish = compute + send_overhead + recv_overhead
///          + send_wait + recv_wait + collective_wait + collective_cost
///          + fault_delay + recovery
///
/// This is the per-phase decomposition the paper's model reasons about
/// (compute vs. boundary exchange vs. collectives, Eqs. 1-10), measured
/// from the inside of the replay instead of predicted. The last two
/// components are zero unless a fault injector is installed.
struct RankTimeBreakdown {
  /// Time advancing through kCompute ops.
  double compute = 0.0;
  /// CPU cost of posting asynchronous sends (kIsend).
  double send_overhead = 0.0;
  /// CPU cost of completing blocking receives (kRecv).
  double recv_overhead = 0.0;
  /// Time parked in kWaitAllSends until posted payloads left the NIC.
  double send_wait = 0.0;
  /// Time blocked in kRecv for a message that had not yet arrived
  /// (BlockReason::kRecvWait).
  double recv_wait = 0.0;
  /// Time blocked in a collective waiting for the last rank to enter
  /// (BlockReason::kCollectiveWait) — load-imbalance skew.
  double collective_wait = 0.0;
  /// This rank's share of the collective's tree cost proper.
  double collective_cost = 0.0;
  /// Time lost to injected perturbations charged directly to this rank
  /// (compute slowdown, OS-noise bursts, one-off delays); zero without
  /// a fault injector.
  double fault_delay = 0.0;
  /// Checkpoint/restart cost of injected rank crashes; zero without a
  /// fault injector.
  double recovery = 0.0;

  /// Point-to-point communication time (overheads plus waits).
  [[nodiscard]] double p2p_seconds() const {
    return send_overhead + recv_overhead + send_wait + recv_wait;
  }
  /// Collective time (skew wait plus tree cost).
  [[nodiscard]] double collective_seconds() const {
    return collective_wait + collective_cost;
  }
  /// Injected-fault time (directly charged delay plus recovery).
  [[nodiscard]] double fault_seconds() const { return fault_delay + recovery; }
  /// Everything, equal to the rank's finish time by construction.
  [[nodiscard]] double total_seconds() const {
    return compute + p2p_seconds() + collective_seconds() + fault_seconds();
  }
};

/// Result of running every rank's program to completion.
struct SimResult {
  /// Time at which the last rank finished (the simulated runtime).
  double makespan = 0.0;
  /// Per-rank completion times.
  std::vector<double> finish_times;
  /// Per-rank time decomposition; breakdown[r].total_seconds() ==
  /// finish_times[r] exactly.
  std::vector<RankTimeBreakdown> breakdown;
  /// records[rank]: the clock values captured by the rank's kRecord
  /// ops, in execution order (see RecordLog).
  std::vector<RecordLog> records;
  TrafficStats traffic;
  FaultStats faults;
  /// Why the run could not finish: deadlocks, receives of lost
  /// messages, and trips of SimConfig::max_sim_seconds or max_events.
  /// For a failed rank, finish_times[r] holds the clock where it stuck,
  /// and its breakdown still sums to that clock exactly.
  std::vector<SimFailure> failures;
  /// Engine-mechanics fields below (events, queue depth, host walls)
  /// are NOT part of the cross-engine bit-identity contract: the
  /// parallel engine splits the queue per shard, so its high-water mark
  /// legitimately differs from the serial oracle's even though every
  /// simulated outcome above is bit-identical.
  std::size_t events_processed = 0;
  /// High-water mark of the event queue during the run (parallel: the
  /// largest per-shard high-water mark).
  std::size_t max_queue_depth = 0;
  /// Host wall seconds the parallel engine's coordinator spent in its
  /// serial sections (epoch scalar reductions, collective fold and
  /// release, budget checks) — the Amdahl numerator of the
  /// epoch barrier, exported as `sim.parallel.coordinator_s`. Zero
  /// under the serial oracle.
  double coordinator_seconds = 0.0;

  [[nodiscard]] bool failed() const { return !failures.empty(); }
};

/// Discrete-event simulator of message-passing ranks.
///
/// Each rank executes its ops of a Program — compute, point-to-point
/// and collective operations — read one at a time as the rank steps.
/// The program is given at construction and is not owned: it must
/// outlive the simulator.
/// Point-to-point messages incur the machine's Tmsg(S) (Equation 4) on
/// the wire but only an injection overhead on the sender's CPU, so
/// sends to multiple neighbors overlap — the key semantic the analytic
/// model deliberately ignores (Equations 5-7 "do not account for
/// overlapping of messages"). Collectives are synchronizing tree
/// operations costed by CollectiveModel.
class Simulator {
 public:
  /// Runs `program` on its ranks() ranks; throws InvalidArgument unless
  /// there is at least one. Every op is checked as it is read (see
  /// check_op).
  Simulator(Program& program, network::MessageCostModel network,
            SimConfig config = {});

  [[nodiscard]] std::int32_t ranks() const { return ranks_; }

  /// Install the shared-NIC injection model (see NicConfig); throws
  /// InvalidArgument unless both fields are positive.
  void set_nic(NicConfig nic);

  /// Per-pair point-to-point costs from a two-level intra/inter-node
  /// network: point-to-point sends call the concrete
  /// HierarchicalNetwork instead of the flat machine model, while
  /// collectives keep the flat model's tree costs. The parallel engine
  /// derives its lookahead from the inter-node model and aligns shard
  /// boundaries to node boundaries. Pass nullptr to revert to the flat
  /// model.
  void set_pair_network(
      std::shared_ptr<const network::HierarchicalNetwork> network);

  /// Install (or clear, with nullptr) a fault injector consulted on
  /// every compute op and point-to-point send. Not owned; must outlive
  /// run(). Without one the fault paths cost a single pointer test.
  void set_fault_injector(FaultInjector* injector);

  /// Install (or clear, with nullptr) a cooperative cancellation token
  /// (docs/RESILIENCE.md, "Resumable campaigns"). Not owned; must
  /// outlive run(). The engines poll it — the serial oracle every few
  /// thousand events, the parallel engine at every epoch barrier — and
  /// an expired token aborts the run by throwing SimFailureError with
  /// Kind::kDeadline, so a blown wall budget can never wedge a sweep.
  void set_cancellation(const util::CancellationToken* token);

  /// Run every rank's ops to completion and return the timing result.
  /// A run that cannot finish (a rank blocks forever, or a bound of
  /// SimConfig trips) returns its diagnoses in SimResult::failures with
  /// the other ranks' timings kept. Throws only for an op check_op
  /// refuses, a mismatched collective sequence, or cancellation.
  /// With SimConfig::threads > 1 the conservative parallel engine runs
  /// instead of the serial oracle; every simulated outcome (times,
  /// breakdowns, records, traffic, fault stats, failures) is
  /// bit-identical to the oracle across thread counts.
  [[nodiscard]] SimResult run();

 private:
  enum class BlockReason : std::uint8_t { kNone, kRecvWait, kCollectiveWait };
  struct RankState {
    double clock = 0.0;
    std::size_t pc = 0;
    /// Index of the op the rank is blocked on. enter_collective advances
    /// pc past the collective before parking the rank, so pc alone
    /// misidentifies the blocking op in deadlock reports.
    std::size_t blocked_op = 0;
    bool blocked = false;
    BlockReason reason = BlockReason::kNone;
    bool finished = false;
    /// SimConfig::max_sim_seconds fired on this rank; it executes no
    /// further ops but is not counted as deadlocked at drain.
    bool timed_out = false;
    /// Latest local completion of any send this rank posted (0 before
    /// the first; clocks never go negative). kWaitAllSends raises the
    /// clock to it: a max is exact and order-free, so this equals a scan
    /// of the pending completions, and the ones an earlier wait covered
    /// are already behind the clock.
    double last_send_completion = 0.0;
    Mailbox mailbox;
    /// Ordinal of the next kCompute / kIsend op (fault-injection keys;
    /// the send ordinal also canonically orders cross-shard messages).
    std::int64_t compute_index = 0;
    std::int64_t send_index = 0;
    /// Point-to-point payload bytes sent by this rank; reduced in rank
    /// order into TrafficStats so the sum is engine-independent.
    double sent_bytes = 0.0;
  };
  /// The entries into one collective so far, folded as an entry count
  /// and the latest entry time. Only one collective can be partly
  /// entered at a time — no rank enters collective k+1 before k is
  /// released — so each shard folds its ranks' entries into one state,
  /// and the parallel coordinator folds the shards' states into one
  /// frontier at each epoch barrier.
  struct CollectiveState {
    OpKind kind = OpKind::kAllreduce;
    double bytes = 0.0;
    std::int32_t entered = 0;
    double max_entry = 0.0;

    /// Adds `part` (one rank's entry or a shard's fold); throws
    /// KrakError when it names another kind or size.
    void fold(const CollectiveState& part);
  };
  /// A complete collective's common completion time and the tree cost
  /// every rank pays.
  struct CollectiveRelease {
    double completion = 0.0;
    double cost = 0.0;
  };

  /// One execution shard: a contiguous rank range with its own event
  /// queue, mailbox record pool and tallies. The serial oracle runs a
  /// single shard spanning every rank; the parallel engine gives each
  /// worker thread its own, plus outboxes of cross-shard sends, drained
  /// by the coordinator at epoch barriers with the shard's collective
  /// fold.
  struct Shard {
    RankId begin = 0;
    RankId end = 0;  ///< exclusive
    EventQueue queue;
    /// The pending messages of this shard's ranks' mailboxes. Arrivals
    /// fire on the receiver's shard, so only this shard's worker takes
    /// and gives back its records.
    MailboxPool mailbox_pool;
    /// Entries of this shard's ranks into the partly entered collective.
    /// The oracle's shard releases it when every rank is in; a parallel
    /// shard never holds every rank, and its coordinator folds and
    /// resets this at each epoch barrier.
    CollectiveState collective;
    TrafficStats traffic;
    /// Integer fault tallies only; the seconds fields reduce from the
    /// rank breakdowns at finalize so their sum order is engine-free.
    FaultStats faults;
    std::vector<SimFailure> failures;
    std::map<std::tuple<RankId, RankId, std::int32_t>, std::int64_t> lost;
    /// One cross-shard payload buffered during an epoch.
    struct OutboundMessage {
      double arrival = 0.0;
      RankId from = -1;
      RankId to = -1;
      std::int32_t tag = 0;
      /// The sender's kIsend ordinal — with (arrival, from) this gives
      /// the canonical total order barriers schedule messages in.
      std::int64_t seq = 0;
    };
    /// Cross-shard payloads bucketed by destination shard
    /// (outboxes[d] holds this shard's sends into shard d); the oracle's
    /// shard owns every rank and leaves them empty. The worker sorts
    /// each run into canonical (arrival, from, seq) order before the
    /// barrier; the destination shard then schedules its inbound runs
    /// source by source in shard order, in parallel with every other
    /// destination. Shards are contiguous rank ranges in rank order, so
    /// that is canonical order among equal arrival times, the only order
    /// a queue tie-break reads (docs/PERFORMANCE.md, "The epoch
    /// coordinator"). Every event fires at its true simulated time.
    std::vector<std::vector<OutboundMessage>> outboxes;
    /// Payloads pushed into `outboxes` since the last barrier — the
    /// coupled-epoch test without scanning the buckets.
    std::size_t outbound_count = 0;
    /// Rank -> owning shard lookup for outbox bucketing (points into
    /// run_parallel's layout vector; valid for the run's duration).
    const std::int32_t* shard_of = nullptr;
    /// Sends that found this node's adapter busy (NIC model only):
    /// inject_at was pushed past the sender's clock by nic_free_.
    /// Exported as `sim.nic.stalls` by both engines.
    std::int64_t nic_stalls = 0;
    std::size_t fired = 0;
    /// Wall seconds this shard spent executing its last epoch window
    /// (observability only — never feeds back into simulated time).
    double busy_seconds = 0.0;
    /// Published at window end by the worker (and refreshed by the
    /// barrier's apply phase after injections): the shard queue's
    /// next_time(), +infinity when drained. The coordinator reduces
    /// these O(shards) scalars instead of re-scanning queues.
    double next_time = 0.0;
    /// Published with `next_time`: this window produced cross-shard
    /// payloads or collective entries, so the barrier must run.
    bool coupled = false;
    /// Messages the barrier's apply phase scheduled into this shard's
    /// queue (summed into sim.parallel.cross_shard_messages).
    std::size_t injected = 0;

    [[nodiscard]] bool owns(RankId rank) const {
      return rank >= begin && rank < end;
    }
  };

  /// Throws InvalidArgument unless `rank` may execute `op`: a message
  /// names another rank in range, and no duration or payload is
  /// negative. The Op factories already refuse a tag outside
  /// [0, Op::kMaxTag].
  void check_op(RankId rank, const Op& op) const;
  void step_rank(Shard& shard, RankId rank, SimResult& result);
  void dispatch(Shard& shard, const SimEvent& event, SimResult& result);
  void enter_collective(Shard& shard, RankId rank, const Op& op,
                        SimResult& result);
  /// Costs the complete fold `coll` as CollectiveModel's binary tree
  /// over every rank and tallies it in `traffic`.
  [[nodiscard]] CollectiveRelease release_collective(
      const CollectiveState& coll, TrafficStats& traffic) const;
  /// Releases the shard's ranks from `release`: each pays its skew wait
  /// plus the tree cost, its clock moves to the completion, and its next
  /// step is queued there.
  void release_ranks(Shard& shard, const CollectiveRelease& release,
                     SimResult& result);
  /// Diagnose the unfinished rank `rank` at drain time (deadlock or
  /// lost-message starvation).
  [[nodiscard]] SimFailure diagnose_stuck_rank(RankId rank);

  /// Shared prologue/epilogue of both engines: reset run state, then
  /// merge per-shard tallies, diagnose stuck ranks, reduce the
  /// order-sensitive float sums in rank order, sort failures
  /// canonically, and emit the run-level observability probes.
  void begin_run(SimResult& result);
  void finalize_run(SimResult& result, std::vector<Shard>& shards,
                    bool budget_exhausted, std::size_t events_fired);

  /// Cancellation checkpoint of both engines: throws SimFailureError
  /// (Kind::kDeadline, rank -1) once the installed token has expired.
  void check_cancellation() const;

  /// How many shards this run uses: 1 (the serial oracle) unless
  /// threads > 1 and at least two shard units exist.
  [[nodiscard]] std::int32_t plan_shards() const;
  /// Rank-count granularity of shard boundaries: the least common
  /// multiple of the hierarchical placement's and the NIC model's
  /// ranks-per-node, so cross-shard messages are exactly the inter-node
  /// ones and every NIC node's adapter state is owned by one shard.
  [[nodiscard]] std::int32_t shard_unit() const;
  /// The epoch lookahead horizon (seconds; 0 means degenerate): the
  /// least time a cross-shard payload or a collective can take.
  [[nodiscard]] double plan_lookahead() const;
  [[nodiscard]] SimResult run_serial();
  [[nodiscard]] SimResult run_parallel(std::int32_t shard_count);

  network::MessageCostModel network_;
  network::CollectiveModel collectives_;
  std::shared_ptr<const network::HierarchicalNetwork> hierarchy_;
  std::optional<NicConfig> nic_;
  FaultInjector* fault_ = nullptr;
  const util::CancellationToken* cancel_ = nullptr;
  /// (from, to, tag) -> count of messages the fault plan lost for good;
  /// consulted when diagnosing a starved receiver. Merged from the
  /// per-shard ledgers before drain diagnosis.
  std::map<std::tuple<RankId, RankId, std::int32_t>, std::int64_t> lost_;
  /// nic_free_[node]: the earliest time the node's adapter can accept
  /// another payload. Safe under the parallel engine without locks:
  /// shard boundaries align to NIC-node boundaries (shard_unit), so
  /// each node's slot is read and written by exactly one worker.
  std::vector<double> nic_free_;
  SimConfig config_;
  Program& program_;
  /// program_.ranks(), read once: check_op compares every message's
  /// peer with it.
  std::int32_t ranks_;
  std::vector<RankState> states_;
};

}  // namespace krak::sim
