#include "network/topology.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace krak::network {

using util::check;

Placement::Placement(std::int32_t pes, std::int32_t pes_per_node)
    : pes_(pes), pes_per_node_(pes_per_node) {
  KRAK_REQUIRE(pes > 0, "Placement requires at least one PE");
  KRAK_REQUIRE(pes_per_node > 0, "Placement requires pes_per_node > 0");
}

std::int32_t Placement::node_of(std::int32_t pe) const {
  KRAK_REQUIRE(pe >= 0 && pe < pes_, "pe out of range");
  return pe / pes_per_node_;
}

bool Placement::same_node(std::int32_t a, std::int32_t b) const {
  return node_of(a) == node_of(b);
}

HierarchicalNetwork::HierarchicalNetwork(MessageCostModel intra_node,
                                         MessageCostModel inter_node,
                                         Placement placement)
    : intra_(std::move(intra_node)),
      inter_(std::move(inter_node)),
      placement_(placement) {}

double HierarchicalNetwork::message_time(std::int32_t from, std::int32_t to,
                                         double bytes) const {
  return placement_.same_node(from, to) ? intra_.message_time(bytes)
                                        : inter_.message_time(bytes);
}

double HierarchicalNetwork::latency(std::int32_t from, std::int32_t to,
                                    double bytes) const {
  return placement_.same_node(from, to) ? intra_.latency(bytes)
                                        : inter_.latency(bytes);
}

MessageCostModel make_es45_shared_memory_model() {
  using util::microseconds;
  using util::nanoseconds;
  util::PiecewiseLinear latency;
  latency.set_interpolation(util::Interpolation::kLogX);
  latency.add_point(1.0, microseconds(0.8));
  latency.add_point(4096.0, microseconds(1.0));
  latency.add_point(1048576.0, microseconds(1.5));

  util::PiecewiseLinear byte_cost;
  byte_cost.set_interpolation(util::Interpolation::kLogX);
  byte_cost.add_point(1.0, nanoseconds(2.0));
  byte_cost.add_point(65536.0, nanoseconds(1.2));
  byte_cost.add_point(1048576.0, nanoseconds(1.0));
  return MessageCostModel(std::move(latency), std::move(byte_cost));
}

}  // namespace krak::network
