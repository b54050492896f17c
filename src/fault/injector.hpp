#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "sim/simulator.hpp"

namespace krak::fault {

/// Compiles a FaultPlan into the per-op decisions sim::Simulator asks
/// for through the sim::FaultInjector interface.
///
/// The (phase, iteration) coordinates of one-off delays and crashes are
/// resolved against the schedule convention that every phase contributes
/// exactly one kCompute op per iteration (SimKrak's Table 1 schedules),
/// i.e. compute index = iteration * phases_per_iteration + (phase - 1).
/// Raw-simulator users can pass phases_per_iteration = 1 so `phase` is
/// always 1 and `iteration` indexes compute ops directly.
///
/// Everything is deterministic in (plan.seed, rank, op ordinal): two
/// runs of the same plan produce bit-identical injections regardless of
/// event interleaving, and on_run_start rewinds all stream state so one
/// engine can serve repeated Simulator::run calls.
class InjectionEngine final : public sim::FaultInjector {
 public:
  /// Throws util::InvalidArgument naming the first check_fault_plan
  /// violation of `plan` for these rank and phase counts.
  InjectionEngine(const FaultPlan& plan, std::int32_t ranks,
                  std::int32_t phases_per_iteration);

  void on_run_start(std::int32_t ranks) override;
  double compute_delay(sim::RankId rank, std::int64_t index,
                       double duration) override;
  double recovery_delay(sim::RankId rank, std::int64_t index,
                        double now) override;
  MessageFate message_fate(sim::RankId from, sim::RankId to, double bytes,
                           std::int64_t send_index) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct NoiseStream {
    double period = 0.0;
    double duration = 0.0;
    double offset = 0.0;       ///< seeded burst-phase jitter in [0, period)
    double accumulated = 0.0;  ///< compute seconds seen so far this run
  };
  struct CrashSite {
    double restart = 0.0;
    double interval = 0.0;
  };

  FaultPlan plan_;
  std::int32_t ranks_ = 0;
  std::vector<double> slowdown_;           ///< per-rank compute factor
  std::vector<double> bandwidth_;          ///< per-rank wire-time divisor
  std::vector<std::vector<NoiseStream>> noise_;  ///< per-rank streams
  std::map<std::pair<std::int32_t, std::int64_t>, double> delays_;
  std::map<std::pair<std::int32_t, std::int64_t>, CrashSite> crashes_;
  /// Message-fault models that apply to a sender rank (indices into
  /// plan_.message_faults), precomputed per rank.
  std::vector<std::vector<std::size_t>> message_models_;
};

}  // namespace krak::fault
