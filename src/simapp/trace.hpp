#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "simapp/phases.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {

/// Point-to-point message inventory of one iteration: every directed
/// message a SimKrak run sends, tallied per phase and by size. Useful
/// for studying the traffic mix (many tiny latency-bound messages) that
/// drives the paper's heterogeneous-mode over-prediction.
struct MessageInventory {
  struct PhaseTraffic {
    std::int64_t messages = 0;
    double bytes = 0.0;
  };
  /// Indexed by phase-1; only phases 2, 4, 5 and 7 are non-zero.
  std::array<PhaseTraffic, kPhaseCount> per_phase{};
  /// Message size (bytes) -> count, across all phases.
  std::map<double, std::int64_t> size_histogram;

  [[nodiscard]] std::int64_t total_messages() const;
  [[nodiscard]] double total_bytes() const;
  /// Mean message size; 0 when there are no messages.
  [[nodiscard]] double mean_message_bytes() const;
  /// Fraction of messages no larger than `bytes`.
  [[nodiscard]] double fraction_at_most(double bytes) const;
};

/// Fold the sends of the first iteration of `app`'s program, rank by
/// rank in program order; a phase ends at its kRecord op. The sizing
/// rules of Sections 4.1-4.2 live in the program alone:
/// tests/simapp/trace_test.cpp pins the inventory to a run's traffic
/// and, with the ghost-update receives, to Equations (5)-(7).
[[nodiscard]] MessageInventory compute_message_inventory(const SimKrak& app);

}  // namespace krak::simapp
