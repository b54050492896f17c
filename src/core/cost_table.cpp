#include "core/cost_table.hpp"

#include "util/error.hpp"

namespace krak::core {

using util::check;

const util::PiecewiseLinear& CostTable::curve(std::int32_t phase,
                                              mesh::Material material) const {
  check(phase >= 1 && phase <= simapp::kPhaseCount, "phase must be in 1..15");
  return curves_[static_cast<std::size_t>(phase - 1)]
                [mesh::material_index(material)];
}

util::PiecewiseLinear& CostTable::curve(std::int32_t phase,
                                        mesh::Material material) {
  check(phase >= 1 && phase <= simapp::kPhaseCount, "phase must be in 1..15");
  return curves_[static_cast<std::size_t>(phase - 1)]
                [mesh::material_index(material)];
}

void CostTable::add_sample(std::int32_t phase, mesh::Material material,
                           double cells, double per_cell_cost) {
  check(cells > 0.0, "sample cell count must be positive");
  check(per_cell_cost >= 0.0, "per-cell cost must be non-negative");
  curve(phase, material).add_point(cells, per_cell_cost);
}

double CostTable::per_cell(std::int32_t phase, mesh::Material material,
                           double cells) const {
  check(cells > 0.0, "query cell count must be positive");
  const util::PiecewiseLinear& c = curve(phase, material);
  if (c.empty()) {
    throw util::KrakError("CostTable: no samples for phase " +
                          std::to_string(phase) + ", material " +
                          std::string(mesh::material_short_name(material)));
  }
  return c(cells);
}

double CostTable::subgrid_time(
    std::int32_t phase,
    std::span<const std::int64_t, mesh::kMaterialCount> cells_per_material)
    const {
  std::int64_t total = 0;
  for (std::int64_t n : cells_per_material) {
    check(n >= 0, "cell counts must be non-negative");
    total += n;
  }
  if (total == 0) return 0.0;
  double time = 0.0;
  for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
    if (cells_per_material[m] == 0) continue;
    time += static_cast<double>(cells_per_material[m]) *
            per_cell(phase, mesh::material_from_index(m),
                     static_cast<double>(total));
  }
  return time;
}

double CostTable::uniform_subgrid_time(std::int32_t phase,
                                       mesh::Material material,
                                       double cells) const {
  check(cells >= 0.0, "cell count must be non-negative");
  if (cells == 0.0) return 0.0;
  return cells * per_cell(phase, material, cells);
}

bool CostTable::has_samples(std::int32_t phase, mesh::Material material) const {
  return !curve(phase, material).empty();
}

std::size_t CostTable::sample_count(std::int32_t phase,
                                    mesh::Material material) const {
  return curve(phase, material).size();
}

std::span<const double> CostTable::sample_cells(std::int32_t phase,
                                                mesh::Material material) const {
  return curve(phase, material).xs();
}

std::span<const double> CostTable::sample_costs(std::int32_t phase,
                                                mesh::Material material) const {
  return curve(phase, material).ys();
}

}  // namespace krak::core
