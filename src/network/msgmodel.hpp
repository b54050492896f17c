#pragma once


#include "util/piecewise.hpp"

namespace krak::network {

/// Point-to-point message cost model, Equation (4) of the paper:
///
///   Tmsg(S) = L(S) + S * TB(S)
///
/// where L(S) is the start-up (latency) cost for a message of S bytes
/// and TB(S) the per-byte bandwidth cost, both piecewise-linear in S.
/// Costs are in seconds; sizes in bytes.
class MessageCostModel {
 public:
  /// A degenerate zero-cost model; useful in tests.
  MessageCostModel() = default;

  MessageCostModel(util::PiecewiseLinear latency,
                   util::PiecewiseLinear byte_cost);

  /// L(S): start-up cost in seconds.
  [[nodiscard]] double latency(double bytes) const;

  /// TB(S): cost per byte in seconds.
  [[nodiscard]] double byte_cost(double bytes) const;

  /// Tmsg(S) = L(S) + S * TB(S).
  [[nodiscard]] double message_time(double bytes) const;

  /// Effective bandwidth S / Tmsg(S) in bytes per second.
  [[nodiscard]] double effective_bandwidth(double bytes) const;

  /// A guaranteed lower bound on message_time over every message size —
  /// the lookahead horizon of the conservative parallel simulator: no
  /// payload sent at time t can arrive before t + min_message_time().
  /// Returns 0 (a degenerate horizon) for the zero-cost model or a
  /// zero-latency table.
  [[nodiscard]] double min_message_time() const;

  /// Scale latencies by `latency_factor` and per-byte costs by
  /// `byte_cost_factor` (procurement what-if knob; factors < 1 mean a
  /// faster network).
  [[nodiscard]] MessageCostModel scaled(double latency_factor,
                                        double byte_cost_factor) const;

 private:
  util::PiecewiseLinear latency_;
  util::PiecewiseLinear byte_cost_;
  bool zero_ = true;
};

/// Piecewise tables parameterized to Quadrics QsNet-I era measurements
/// (Petrini et al., IEEE Micro 22(1), 2002): ~5 us MPI latency and
/// ~300 MB/s sustained bandwidth, with per-byte cost falling toward the
/// asymptote as messages grow.
[[nodiscard]] MessageCostModel make_qsnet1_model();

/// A simple latency/bandwidth (Hockney) model: constant latency and
/// per-byte cost, handy for analytic sanity checks.
[[nodiscard]] MessageCostModel make_hockney_model(double latency_seconds,
                                                  double bytes_per_second);

}  // namespace krak::network
