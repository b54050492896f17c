#include "core/comm_model.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "simapp/phases.hpp"
#include "util/error.hpp"

namespace krak::core {

using simapp::kBoundaryAugmentedMessages;
using simapp::kBoundaryBytesPerFace;
using simapp::kBoundaryMessagesPerStep;

double boundary_exchange_time(const network::MessageCostModel& network,
                              std::span<const double> faces,
                              std::span<const double> multi_material_nodes) {
  util::check(faces.size() == multi_material_nodes.size(),
              "faces and multi-material node spans must match");
  double total_faces = 0.0;
  double time = 0.0;
  for (std::size_t i = 0; i < faces.size(); ++i) {
    const double f = faces[i];
    const double nodes = multi_material_nodes[i];
    util::check(f >= 0.0, "face counts must be non-negative");
    util::check(nodes >= 0.0, "ghost node counts must be non-negative");
    if (f == 0.0) continue;
    total_faces += f;
    const double base_bytes = kBoundaryBytesPerFace * f;
    const double augmented_bytes =
        base_bytes + kBoundaryBytesPerFace * nodes;
    time += kBoundaryAugmentedMessages * network.message_time(augmented_bytes);
    time += (kBoundaryMessagesPerStep - kBoundaryAugmentedMessages) *
            network.message_time(base_bytes);
  }
  if (total_faces > 0.0) {
    time += kBoundaryMessagesPerStep *
            network.message_time(kBoundaryBytesPerFace * total_faces);
  }
  return time;
}

double boundary_exchange_time(const network::MessageCostModel& network,
                              std::span<const double> faces) {
  const std::vector<double> zeros(faces.size(), 0.0);
  return boundary_exchange_time(network, faces, zeros);
}

double ghost_update_time(const network::MessageCostModel& network,
                         double bytes_per_node, double ghost_nodes_local,
                         double ghost_nodes_remote) {
  util::check(bytes_per_node >= 0.0 && ghost_nodes_local >= 0.0 &&
                  ghost_nodes_remote >= 0.0,
              "ghost update arguments must be non-negative");
  return network.message_time(bytes_per_node * ghost_nodes_local) +
         network.message_time(bytes_per_node * ghost_nodes_remote);
}

PointToPointBreakdown subdomain_point_to_point(
    const network::MessageCostModel& network,
    const partition::SubdomainInfo& sub) {
  PointToPointBreakdown breakdown;
  for (const partition::NeighborBoundary& boundary : sub.neighbors) {
    std::array<double, mesh::kExchangeGroupCount> faces{};
    std::array<double, mesh::kExchangeGroupCount> multi_nodes{};
    for (std::size_t g = 0; g < faces.size(); ++g) {
      faces[g] = static_cast<double>(boundary.faces_per_group[g]);
      multi_nodes[g] =
          static_cast<double>(boundary.multi_material_nodes_per_group[g]);
    }
    breakdown.boundary_exchange +=
        boundary_exchange_time(network, faces, multi_nodes);

    // Ghost-node updates happen in phases 4 (8 bytes) and 5 and 7
    // (16 bytes each), Table 1.
    const auto local = static_cast<double>(boundary.ghost_nodes_local);
    const auto remote = static_cast<double>(boundary.ghost_nodes_remote);
    breakdown.ghost_updates += ghost_update_time(network, 8.0, local, remote);
    breakdown.ghost_updates +=
        2.0 * ghost_update_time(network, 16.0, local, remote);
  }
  return breakdown;
}

PointToPointBreakdown max_point_to_point(
    const network::MessageCostModel& network,
    const partition::PartitionStats& stats) {
  PointToPointBreakdown max_breakdown;
  for (const partition::SubdomainInfo& sub : stats.subdomains()) {
    const PointToPointBreakdown b = subdomain_point_to_point(network, sub);
    max_breakdown.boundary_exchange =
        std::max(max_breakdown.boundary_exchange, b.boundary_exchange);
    max_breakdown.ghost_updates =
        std::max(max_breakdown.ghost_updates, b.ghost_updates);
  }
  return max_breakdown;
}

}  // namespace krak::core
