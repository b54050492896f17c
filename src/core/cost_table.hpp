#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "mesh/material.hpp"
#include "simapp/costmodel.hpp"
#include "util/piecewise.hpp"

namespace krak::core {

/// The model's calibrated computation-cost database: the piecewise
/// linear function T() of Equation (2), giving the per-cell cost of one
/// phase for one material at a given local subgrid size.
///
/// "T() returns the per-cell cost from a piecewise linear equation given
/// the phase and material type" (Section 3). Entries are built by the
/// calibration procedures (Section 3.1) from measured samples; queries
/// between samples interpolate linearly in the cell count, exactly as
/// the paper does — including the inaccuracy near the knee that the
/// paper reports — and queries outside them clamp to the nearest
/// sample.
class CostTable {
 public:
  /// Record a measured per-cell cost sample: phase in 1..15, `cells` the
  /// local subgrid size the sample was taken at.
  void add_sample(std::int32_t phase, mesh::Material material, double cells,
                  double per_cell_cost);

  /// Per-cell cost T(phase, material) at a local subgrid size of
  /// `cells`. Throws KrakError if no sample exists for this pair.
  [[nodiscard]] double per_cell(std::int32_t phase, mesh::Material material,
                                double cells) const;

  /// Modeled phase time of a subgrid: sum over local cells of the
  /// per-cell cost (the inner sum of Equation 2), i.e.
  /// sum_m n_m * T(phase, m, n_total).
  [[nodiscard]] double subgrid_time(
      std::int32_t phase,
      std::span<const std::int64_t, mesh::kMaterialCount> cells_per_material)
      const;

  /// Modeled phase time of a single-material subgrid of n cells.
  [[nodiscard]] double uniform_subgrid_time(std::int32_t phase,
                                            mesh::Material material,
                                            double cells) const;

  /// True if (phase, material) has at least one sample.
  [[nodiscard]] bool has_samples(std::int32_t phase,
                                 mesh::Material material) const;

  /// Number of samples stored for (phase, material).
  [[nodiscard]] std::size_t sample_count(std::int32_t phase,
                                         mesh::Material material) const;

  /// Raw breakpoints for serialization/inspection: the sampled cell
  /// counts and the matching per-cell costs, ascending in cells.
  [[nodiscard]] std::span<const double> sample_cells(
      std::int32_t phase, mesh::Material material) const;
  [[nodiscard]] std::span<const double> sample_costs(
      std::int32_t phase, mesh::Material material) const;

 private:
  [[nodiscard]] const util::PiecewiseLinear& curve(
      std::int32_t phase, mesh::Material material) const;
  [[nodiscard]] util::PiecewiseLinear& curve(std::int32_t phase,
                                             mesh::Material material);

  /// curves_[phase-1][material]
  std::array<std::array<util::PiecewiseLinear, mesh::kMaterialCount>,
             simapp::kPhaseCount>
      curves_;
};

}  // namespace krak::core
