#include "network/msgmodel.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace krak::network {

using util::check;
using util::Interpolation;
using util::PiecewiseLinear;

MessageCostModel::MessageCostModel(PiecewiseLinear latency,
                                   PiecewiseLinear byte_cost)
    : latency_(std::move(latency)),
      byte_cost_(std::move(byte_cost)),
      zero_(false) {
  check(!latency_.empty(), "latency table must be non-empty");
  check(!byte_cost_.empty(), "byte-cost table must be non-empty");
}

double MessageCostModel::latency(double bytes) const {
  check(bytes >= 0.0, "message size must be non-negative");
  if (zero_) return 0.0;
  // Tables are indexed from 1 byte (log interpolation); clamp below.
  return latency_(bytes < 1.0 ? 1.0 : bytes);
}

double MessageCostModel::byte_cost(double bytes) const {
  check(bytes >= 0.0, "message size must be non-negative");
  if (zero_) return 0.0;
  return byte_cost_(bytes < 1.0 ? 1.0 : bytes);
}

double MessageCostModel::message_time(double bytes) const {
  return latency(bytes) + bytes * byte_cost(bytes);
}

double MessageCostModel::effective_bandwidth(double bytes) const {
  check(bytes > 0.0, "effective bandwidth needs a positive size");
  return bytes / message_time(bytes);
}

double MessageCostModel::min_message_time() const {
  if (zero_) return 0.0;
  // Tmsg(S) = L(S) + S * TB(S) with S >= 0 and TB >= 0, so the infimum
  // over sizes is bounded below by the infimum of L alone. L is
  // piecewise linear and clamped over the evaluated domain [1, inf), so
  // its infimum is attained at a breakpoint or at the left edge.
  double bound = latency_(1.0);
  for (const double y : latency_.ys()) bound = std::min(bound, y);
  return bound > 0.0 ? bound : 0.0;
}

MessageCostModel MessageCostModel::scaled(double latency_factor,
                                          double byte_cost_factor) const {
  check(latency_factor > 0.0 && byte_cost_factor > 0.0,
        "scale factors must be positive");
  if (zero_) return {};
  // Scale the y values only; x breakpoints and — crucially — the source
  // table's interpolation mode carry over unchanged, so a scaled Hockney
  // (linear-interp) model stays Hockney.
  const auto scale_table = [](const PiecewiseLinear& table, double factor) {
    std::vector<double> ys(table.ys().begin(), table.ys().end());
    for (double& y : ys) y *= factor;
    return PiecewiseLinear(table.xs(), ys, table.interpolation());
  };
  return MessageCostModel(scale_table(latency_, latency_factor),
                          scale_table(byte_cost_, byte_cost_factor));
}

MessageCostModel make_qsnet1_model() {
  using util::microseconds;
  using util::nanoseconds;
  // Start-up cost L(S): ~4.5 us for tiny messages, growing mildly with
  // size as rendezvous protocols kick in.
  PiecewiseLinear latency;
  latency.set_interpolation(Interpolation::kLogX);
  latency.add_point(1.0, microseconds(4.5));
  latency.add_point(64.0, microseconds(4.6));
  latency.add_point(512.0, microseconds(5.0));
  latency.add_point(4096.0, microseconds(6.0));
  latency.add_point(65536.0, microseconds(8.0));
  latency.add_point(1048576.0, microseconds(10.0));

  // Per-byte cost TB(S): overhead-dominated for small messages, falling
  // to the ~305 MB/s asymptote (~3.3 ns/byte) for large ones.
  PiecewiseLinear byte_cost;
  byte_cost.set_interpolation(Interpolation::kLogX);
  byte_cost.add_point(1.0, nanoseconds(12.0));
  byte_cost.add_point(64.0, nanoseconds(10.0));
  byte_cost.add_point(512.0, nanoseconds(6.0));
  byte_cost.add_point(4096.0, nanoseconds(4.0));
  byte_cost.add_point(65536.0, nanoseconds(3.4));
  byte_cost.add_point(1048576.0, nanoseconds(3.28));

  return MessageCostModel(std::move(latency), std::move(byte_cost));
}

MessageCostModel make_hockney_model(double latency_seconds,
                                    double bytes_per_second) {
  check(latency_seconds >= 0.0, "latency must be non-negative");
  check(bytes_per_second > 0.0, "bandwidth must be positive");
  PiecewiseLinear latency;
  latency.add_point(1.0, latency_seconds);
  PiecewiseLinear byte_cost;
  byte_cost.add_point(1.0, 1.0 / bytes_per_second);
  return MessageCostModel(std::move(latency), std::move(byte_cost));
}

}  // namespace krak::network
