#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace krak::fault {

namespace rules {

/// Rule ids of `krakfaults` violations, as `krak_analyze --faults`
/// reports them (docs/ANALYSIS.md).
///
/// Structure: whatever parse_fault_plan rejects as a malformed spec.
inline constexpr const char* kFaultSpecFormat = "fault-spec-format";
/// Values: every number is finite; slowdown factor >= 1, noise period
/// > 0, drop probability in [0, 1), bandwidth factor in (0, 1], and
/// every other duration, cost, interval, bound and retry count >= 0.
inline constexpr const char* kFaultSpecRange = "fault-spec-range";
/// Targets: a rank within the run (`*` only where every rank may be
/// hit, so never for delay or crash), a phase within the iteration and
/// a non-negative iteration.
inline constexpr const char* kFaultSpecTarget = "fault-spec-target";

}  // namespace rules

/// Wildcard rank: the injection applies to every rank.
inline constexpr std::int32_t kAllRanks = -1;

/// Persistent per-rank compute slowdown: every compute op on the rank
/// takes `factor` times as long; the excess is charged to fault_delay.
/// Models a thermally throttled or oversubscribed processor.
struct ComputeSlowdown {
  std::int32_t rank = kAllRanks;
  double factor = 1.0;  ///< >= 1; 1.25 means 25% slower
};

/// Periodic OS-noise bursts: every `period_s` of accumulated compute on
/// the rank, one burst of `duration_s` is injected (charged to
/// fault_delay). The plan seed jitters each rank's burst phase so ranks
/// do not beat in lockstep — the fine-grained-noise regime of Afzal,
/// Hager & Wellein (PAPERS.md).
struct NoiseBurst {
  std::int32_t rank = kAllRanks;
  double period_s = 1e-3;
  double duration_s = 25e-6;
};

/// One-off injected delay at an exact (rank, phase, iteration) — the
/// idle-wave experiment of "Propagation and Decay of Injected One-Off
/// Delays on Clusters". Charged to fault_delay before the phase's
/// compute finishes, so it propagates through the reduction fence.
struct OneOffDelay {
  std::int32_t rank = 0;
  std::int32_t phase = 1;      ///< 1-based Table 1 phase number
  std::int32_t iteration = 0;  ///< 0-based
  double seconds = 0.0;
};

/// Message-loss model with a bounded retransmit timeout: each
/// point-to-point payload sent by `rank` is dropped with
/// `drop_probability` per attempt; each retransmission costs
/// `retransmit_timeout_s` of extra wire delay. A payload dropped more
/// than `max_retries` times is lost for good — the simulator returns the
/// starved receiver as a structured SimFailure. `extra_delay_s` is a
/// deterministic per-message link delay applied on top.
struct MessageFaultModel {
  std::int32_t rank = kAllRanks;  ///< sender rank
  double drop_probability = 0.0;
  double extra_delay_s = 0.0;
  double retransmit_timeout_s = 1e-4;
  std::int32_t max_retries = 3;
};

/// NIC/link bandwidth degradation on a sender: wire transfer times of
/// its messages are divided by `bandwidth_factor` (0.5 = half the
/// healthy bandwidth).
struct NicDegrade {
  std::int32_t rank = kAllRanks;
  double bandwidth_factor = 1.0;  ///< in (0, 1]
};

/// Rank crash at an exact (rank, phase, iteration) with an analytic
/// checkpoint/restart cost charged to `recovery`: restart_s plus the
/// expected rework. With a checkpoint interval I the expected rework is
/// I/2 (Daly's first-order model); without one (interval 0) the rank
/// recomputes everything since t = 0. A negative interval is an error.
struct RankCrash {
  std::int32_t rank = 0;
  std::int32_t phase = 1;
  std::int32_t iteration = 0;
  double restart_s = 0.0;
  double checkpoint_interval_s = 0.0;  ///< 0: no checkpointing
};

/// A deterministic, seedable fault-injection plan (docs/RESILIENCE.md).
/// An empty plan is the contract for "no perturbation": SimKrak skips
/// the injector entirely and reproduces pre-fault behavior bit for bit.
/// Every value must be finite and meet check_fault_plan's rules.
struct FaultPlan {
  /// Seeds every stochastic choice (noise phase offsets, message drop
  /// draws); the same seed and plan give bit-identical runs.
  std::uint64_t seed = 0;
  std::vector<ComputeSlowdown> slowdowns;
  std::vector<NoiseBurst> noise;
  std::vector<OneOffDelay> delays;
  std::vector<MessageFaultModel> message_faults;
  std::vector<NicDegrade> degrades;
  std::vector<RankCrash> crashes;
  /// Bound on simulated time; 0 disables (see
  /// sim::SimConfig::max_sim_seconds). A negative bound is an error.
  double max_sim_seconds = 0.0;

  [[nodiscard]] bool empty() const {
    return slowdowns.empty() && noise.empty() && delays.empty() &&
           message_faults.empty() && degrades.empty() && crashes.empty();
  }
  /// Total number of injection directives.
  [[nodiscard]] std::size_t size() const {
    return slowdowns.size() + noise.size() + delays.size() +
           message_faults.size() + degrades.size() + crashes.size();
  }
};

/// Plain-text fault-spec format, versioned like the deck and cost-table
/// formats:
///
///   krakfaults 1
///   seed 7
///   slowdown rank=2 factor=1.5
///   noise rank=* period=1e-3 duration=25e-6
///   delay rank=0 phase=4 iter=1 seconds=2e-3
///   messages rank=* drop=0.05 delay=0 rto=1e-4 retries=3
///   degrade rank=3 bandwidth=0.25
///   crash rank=1 phase=9 iter=0 restart=0.05 interval=0.4
///   watchdog max_seconds=10
///   end
///
/// `rank=*` targets every rank. Unknown directives and keys are errors
/// (no silent skipping: a typo must not quietly weaken an experiment),
/// and so are extra tokens on the header, `seed` or `end` line, content
/// after `end`, a negative seed and integers outside 32 bits.

/// Serialize a plan. Throws KrakError on stream failure.
void write_fault_plan(std::ostream& out, const FaultPlan& plan);
void save_fault_plan(const std::string& path, const FaultPlan& plan);

/// Parse a plan; throws KrakError naming the offending line on
/// malformed input. load_fault_plan prefixes the path and cause.
[[nodiscard]] FaultPlan parse_fault_plan(std::istream& in);
[[nodiscard]] FaultPlan load_fault_plan(const std::string& path);

/// One rule a plan breaks: its rule id (rules::kFaultSpecRange or
/// rules::kFaultSpecTarget), the directive it sits in ("faults/crash 0",
/// "faults/watchdog") and what is wrong.
struct PlanViolation {
  const char* rule = "";
  std::string component;
  std::string message;
};

/// Every value and target rule of `plan` for a run of `ranks` ranks and
/// `phases_per_iteration` phases; a bound of 0 skips its upper-bound
/// check. Empty exactly when the plan is valid. The one copy of the
/// rules: InjectionEngine throws the first violation, `krak_analyze
/// --faults` reports them all.
[[nodiscard]] std::vector<PlanViolation> check_fault_plan(
    const FaultPlan& plan, std::int32_t ranks,
    std::int32_t phases_per_iteration);

/// Daly's first-order optimal checkpoint interval sqrt(2 * C * M) for
/// checkpoint cost C and mean time between failures M (both > 0).
[[nodiscard]] double daly_optimal_interval(double checkpoint_cost_s,
                                           double mtbf_s);

/// Expected cost of recovering from one crash under a checkpoint
/// interval I: restart plus I/2 of rework; with I <= 0 the rework is
/// `elapsed_s` (recompute everything).
[[nodiscard]] double expected_recovery_cost(double restart_s,
                                            double checkpoint_interval_s,
                                            double elapsed_s);

}  // namespace krak::fault
