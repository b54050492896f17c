#include "fault/injector.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace krak::fault {

namespace {

/// SplitMix64-style combiner: decorrelates streams keyed by small
/// consecutive integers (ranks, send ordinals).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a + 0x9e3779b97f4a7c15ull * (b + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

InjectionEngine::InjectionEngine(const FaultPlan& plan, std::int32_t ranks,
                                 std::int32_t phases_per_iteration)
    : plan_(plan), ranks_(ranks) {
  util::check(ranks > 0, "InjectionEngine requires at least one rank");
  util::check(phases_per_iteration > 0,
              "phases_per_iteration must be positive");
  const std::vector<PlanViolation> violations =
      check_fault_plan(plan, ranks, phases_per_iteration);
  if (!violations.empty()) {
    throw util::InvalidArgument("invalid fault plan: " +
                                violations.front().component + ": " +
                                violations.front().message);
  }
  const auto n = static_cast<std::size_t>(ranks);
  slowdown_.assign(n, 1.0);
  bandwidth_.assign(n, 1.0);
  noise_.assign(n, {});
  message_models_.assign(n, {});

  const auto compute_key = [&](std::int32_t phase, std::int32_t iteration) {
    return static_cast<std::int64_t>(iteration) * phases_per_iteration +
           (phase - 1);
  };
  const auto each_rank = [&](std::int32_t rank, const auto& apply) {
    if (rank == kAllRanks) {
      for (std::int32_t r = 0; r < ranks; ++r) apply(r);
    } else {
      apply(rank);
    }
  };

  for (const ComputeSlowdown& s : plan.slowdowns) {
    each_rank(s.rank, [&](std::int32_t r) {
      slowdown_[static_cast<std::size_t>(r)] *= s.factor;
    });
  }
  for (const NoiseBurst& burst : plan.noise) {
    each_rank(burst.rank, [&](std::int32_t r) {
      NoiseStream stream;
      stream.period = burst.period_s;
      stream.duration = burst.duration_s;
      // Seeded per-rank phase jitter so ranks do not burst in lockstep.
      util::Rng rng(mix(plan.seed, static_cast<std::uint64_t>(r)));
      stream.offset = rng.next_double() * burst.period_s;
      noise_[static_cast<std::size_t>(r)].push_back(stream);
    });
  }
  for (const OneOffDelay& delay : plan.delays) {
    delays_[{delay.rank, compute_key(delay.phase, delay.iteration)}] +=
        delay.seconds;
  }
  for (std::size_t i = 0; i < plan.message_faults.size(); ++i) {
    each_rank(plan.message_faults[i].rank, [&](std::int32_t r) {
      message_models_[static_cast<std::size_t>(r)].push_back(i);
    });
  }
  for (const NicDegrade& degrade : plan.degrades) {
    each_rank(degrade.rank, [&](std::int32_t r) {
      bandwidth_[static_cast<std::size_t>(r)] *= degrade.bandwidth_factor;
    });
  }
  for (const RankCrash& crash : plan.crashes) {
    CrashSite& site =
        crashes_[{crash.rank, compute_key(crash.phase, crash.iteration)}];
    site.restart += crash.restart_s;
    site.interval = std::max(site.interval, crash.checkpoint_interval_s);
  }
}

void InjectionEngine::on_run_start(std::int32_t ranks) {
  util::check(ranks == ranks_,
              "fault plan compiled for a different rank count");
  for (auto& streams : noise_) {
    for (NoiseStream& stream : streams) stream.accumulated = 0.0;
  }
}

double InjectionEngine::compute_delay(sim::RankId rank, std::int64_t index,
                                      double duration) {
  const auto r = static_cast<std::size_t>(rank);
  double extra = (slowdown_[r] - 1.0) * duration;
  // Noise bursts: one burst each time the rank's accumulated compute
  // crosses a (jittered) period boundary.
  for (NoiseStream& stream : noise_[r]) {
    const double before = stream.accumulated + stream.offset;
    const double after = before + duration;
    const double bursts =
        std::floor(after / stream.period) - std::floor(before / stream.period);
    stream.accumulated += duration;
    extra += bursts * stream.duration;
  }
  if (!delays_.empty()) {
    const auto it = delays_.find({rank, index});
    if (it != delays_.end()) extra += it->second;
  }
  return extra;
}

double InjectionEngine::recovery_delay(sim::RankId rank, std::int64_t index,
                                       double now) {
  if (crashes_.empty()) return 0.0;
  const auto it = crashes_.find({rank, index});
  if (it == crashes_.end()) return 0.0;
  return expected_recovery_cost(it->second.restart, it->second.interval, now);
}

sim::FaultInjector::MessageFate InjectionEngine::message_fate(
    sim::RankId from, sim::RankId to, double bytes, std::int64_t send_index) {
  (void)to;
  (void)bytes;
  MessageFate fate;
  const auto r = static_cast<std::size_t>(from);
  fate.bandwidth_factor = 1.0 / bandwidth_[r];
  if (message_models_[r].empty()) return fate;
  // Per-message stream keyed by (seed, sender, send ordinal): the fate
  // is independent of event interleaving and of every other message.
  util::Rng rng(mix(mix(plan_.seed, static_cast<std::uint64_t>(from)),
                    static_cast<std::uint64_t>(send_index)));
  for (const std::size_t i : message_models_[r]) {
    const MessageFaultModel& model = plan_.message_faults[i];
    fate.extra_delay += model.extra_delay_s;
    if (model.drop_probability <= 0.0) continue;
    std::int32_t drops = 0;
    while (drops <= model.max_retries &&
           rng.next_double() < model.drop_probability) {
      ++drops;
    }
    if (drops > model.max_retries) {
      fate.lost = true;
      fate.retransmits += model.max_retries;
    } else {
      fate.retransmits += drops;
      fate.extra_delay += drops * model.retransmit_timeout_s;
    }
  }
  return fate;
}

}  // namespace krak::fault
