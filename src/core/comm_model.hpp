#pragma once

#include <span>

#include "network/collectives.hpp"
#include "network/msgmodel.hpp"
#include "partition/stats.hpp"

namespace krak::core {

/// The communication model of Section 4: boundary exchange (Equation
/// 5), ghost-node updates (Equations 6-7), collectives (Equations
/// 8-10). Point-to-point costs come from the piecewise-linear Tmsg of
/// Equation (4). By design the point-to-point equations serialize the
/// messages of a processor (no overlap between neighbors) — the paper
/// explicitly notes this approximation.

/// Equation (5): the time for one processor to complete a boundary
/// exchange with a single neighbor. `faces` holds the number of
/// boundary faces of each material (entries of zero contribute nothing);
/// the final term covers the additional all-materials step.
///
/// `multi_material_nodes` (parallel to `faces`) gives, per material,
/// the ghost nodes on this boundary that touch that material and more
/// than one material in total; the first two of the six messages in the
/// material's step additionally carry 12 bytes per such node
/// (Section 4.1, Table 3).
[[nodiscard]] double boundary_exchange_time(
    const network::MessageCostModel& network, std::span<const double> faces,
    std::span<const double> multi_material_nodes);

/// Equation (5) exactly as printed (no ghost-node augmentation).
[[nodiscard]] double boundary_exchange_time(
    const network::MessageCostModel& network, std::span<const double> faces);

/// Equations (6)-(7): ghost-node update time with one neighbor —
/// Tmsg(b*N_local) + Tmsg(b*N_remote) with b = 8 bytes for phase 4 and
/// 16 bytes for phases 5 and 7.
[[nodiscard]] double ghost_update_time(const network::MessageCostModel& network,
                                       double bytes_per_node,
                                       double ghost_nodes_local,
                                       double ghost_nodes_remote);

/// Per-iteration point-to-point communication of one processor under
/// the mesh-specific model: Equation (5) summed over its neighbors,
/// plus Equations (6)-(7) over its neighbors for the three ghost-update
/// phases.
struct PointToPointBreakdown {
  double boundary_exchange = 0.0;
  double ghost_updates = 0.0;

  [[nodiscard]] double total() const {
    return boundary_exchange + ghost_updates;
  }
};

/// Evaluate the mesh-specific point-to-point model for one subdomain:
/// one exchange step per boundary-exchange material group (the two
/// aluminum layers are one group, as in the application), with the
/// multi-material ghost-node augmentation of Section 4.1.
[[nodiscard]] PointToPointBreakdown subdomain_point_to_point(
    const network::MessageCostModel& network,
    const partition::SubdomainInfo& sub);

/// Max over processors of each point-to-point component (phases end at
/// global synchronizations, so the slowest processor defines the cost).
[[nodiscard]] PointToPointBreakdown max_point_to_point(
    const network::MessageCostModel& network,
    const partition::PartitionStats& stats);

}  // namespace krak::core
