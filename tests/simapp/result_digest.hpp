#pragma once

#include <bit>
#include <cstdint>

#include "simapp/simkrak.hpp"

namespace krak::simapp {

/// FNV-1a over the IEEE-754 / integer bit patterns of every output field
/// of a SimKrak run: makespan, per-iteration time, phase times, events,
/// traffic, fault delay, failure count and each rank's breakdown. Two
/// runs share a digest only if they agree on all of it to the last ulp,
/// so a pinned digest fixes the whole result across commits.
inline std::uint64_t result_digest(const SimKrakResult& result) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double value) {
    mix(std::bit_cast<std::uint64_t>(value));
  };
  const auto mix_count = [&mix](auto value) {
    mix(static_cast<std::uint64_t>(value));
  };

  mix_double(result.total_time);
  mix_double(result.time_per_iteration);
  for (const double phase : result.phase_times) mix_double(phase);
  mix_count(result.events_processed);
  mix_count(result.traffic.point_to_point_messages);
  mix_double(result.traffic.point_to_point_bytes);
  mix_count(result.traffic.allreduces);
  mix_count(result.traffic.broadcasts);
  mix_count(result.traffic.gathers);
  mix_double(result.fault_stats.fault_delay_seconds);
  mix_count(result.failures.size());
  mix_count(result.rank_breakdown.size());
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    mix_double(rank.compute);
    mix_double(rank.send_overhead);
    mix_double(rank.recv_overhead);
    mix_double(rank.send_wait);
    mix_double(rank.recv_wait);
    mix_double(rank.collective_wait);
    mix_double(rank.collective_cost);
    mix_double(rank.fault_delay);
    mix_double(rank.recovery);
    mix_double(rank.total_seconds());
  }
  return hash;
}

}  // namespace krak::simapp
