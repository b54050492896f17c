#include "core/general_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/comm_model.hpp"
#include "network/collectives.hpp"
#include "util/error.hpp"

namespace krak::core {

using util::check;

namespace {

/// Neighbors of each idealized square subgrid: one per side (Section 3.2).
constexpr std::int32_t kNeighborsPerPe = 4;

}  // namespace

std::string_view general_model_mode_name(GeneralModelMode mode) {
  switch (mode) {
    case GeneralModelMode::kHeterogeneous: return "heterogeneous";
    case GeneralModelMode::kHomogeneous: return "homogeneous";
  }
  return "unknown";
}

GeneralModel::GeneralModel(CostTable table, network::MachineConfig machine)
    : table_(std::move(table)), machine_(std::move(machine)) {}

double GeneralModel::boundary_faces(std::int64_t total_cells,
                                    std::int32_t pes) {
  check(total_cells > 0 && pes > 0, "cells and PEs must be positive");
  return std::sqrt(static_cast<double>(total_cells) /
                   static_cast<double>(pes));
}

double GeneralModel::phase_time_heterogeneous(std::int32_t phase,
                                              double cells_per_pe) const {
  // Each material occupies its ratio's share of the idealized subgrid
  // and is costed at that share's size: the general model has no real
  // mixed subgrid, so material m is treated as its own region of
  // ratio_m * n cells. At large processor counts these per-material
  // regions shrink into the knee of the cost curve, which (together
  // with the per-material boundary-exchange messages) is why the
  // heterogeneous flavor over-predicts at scale (Section 5.2).
  double time = 0.0;
  for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
    const double cells = mesh::kPaperMaterialRatios[m] * cells_per_pe;
    time += table_.uniform_subgrid_time(phase, mesh::material_from_index(m),
                                        cells);
  }
  return time;
}

double GeneralModel::phase_time_homogeneous(std::int32_t phase,
                                            double cells_per_pe) const {
  // "By calculating which material results in the longest computation
  // time, the time required for each phase of computation can be
  // determined" (Section 3.2).
  double max_time = 0.0;
  for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
    max_time = std::max(
        max_time, table_.uniform_subgrid_time(
                      phase, mesh::material_from_index(m), cells_per_pe));
  }
  return max_time;
}

PredictionReport GeneralModel::predict(std::int64_t total_cells,
                                       std::int32_t pes,
                                       GeneralModelMode mode) const {
  check(total_cells > 0, "total_cells must be positive");
  check(pes > 0, "pes must be positive");
  check(pes <= machine_.total_pes(), "machine has too few processors");
  const double cells_per_pe =
      static_cast<double>(total_cells) / static_cast<double>(pes);

  PredictionReport report;

  // --- computation (Equations 1-3 under the idealized partition) -----
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    const double t = (mode == GeneralModelMode::kHeterogeneous)
                         ? phase_time_heterogeneous(phase, cells_per_pe)
                         : phase_time_homogeneous(phase, cells_per_pe);
    report.phase_computation[static_cast<std::size_t>(phase - 1)] =
        t / machine_.compute_speedup;
    report.computation += t / machine_.compute_speedup;
  }

  // --- point-to-point communication (Equations 5-7) ------------------
  const std::int32_t neighbors =
      std::min<std::int32_t>(kNeighborsPerPe, pes - 1);
  if (neighbors > 0) {
    const double faces = boundary_faces(total_cells, pes);

    std::vector<double> face_array;
    if (mode == GeneralModelMode::kHeterogeneous) {
      // "Boundary faces are divided equally among the materials in use":
      // the paper's deck uses all of them.
      face_array.assign(mesh::kMaterialCount,
                        faces / static_cast<double>(mesh::kMaterialCount));
    } else {
      // A homogeneous subgrid's boundary touches a single material.
      face_array = {faces};
    }
    // Equation (5) per neighbor, serialized over neighbors (the model
    // does not overlap messages between neighbors).
    // Equation (5) as printed: no ghost-node augmentation.
    report.boundary_exchange =
        static_cast<double>(neighbors) *
        boundary_exchange_time(machine_.network, face_array);

    // "The number of ghost nodes on each boundary is one more than the
    // number of boundary faces, and half ... are local with the
    // remaining half remote" (Section 3.2).
    const double ghost_nodes = faces + 1.0;
    const double local = ghost_nodes / 2.0;
    const double remote = ghost_nodes - local;
    report.ghost_updates =
        static_cast<double>(neighbors) *
        (ghost_update_time(machine_.network, 8.0, local, remote) +
         2.0 * ghost_update_time(machine_.network, 16.0, local, remote));
  }

  // --- collectives (Equations 8-10) -----------------------------------
  const network::CollectiveModel collectives(machine_.network);
  report.broadcast = collectives.iteration_broadcast(pes);
  report.allreduce = collectives.iteration_allreduce(pes);
  report.gather = collectives.iteration_gather(pes);

  return report;
}

}  // namespace krak::core
