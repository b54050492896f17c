#include "mesh/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace krak::mesh {

using util::check;

namespace {

/// Slack allowed on the layer-fraction sum: generous enough for decimal
/// fractions, far tighter than any real mix error.
constexpr double kMixTolerance = 1e-6;

void check_spec(const SyntheticSpec& spec) {
  check(spec.nx > 0 && spec.ny > 0, "synthetic grid must be positive");
  check(!spec.layers.empty(), "synthetic spec needs at least one layer");
  check(static_cast<std::size_t>(spec.nx) >= spec.layers.size(),
        "synthetic deck needs at least one column per layer");
  double sum = 0.0;
  for (const SyntheticSpec::Layer& layer : spec.layers) {
    check(layer.fraction > 0.0, "layer fractions must be positive");
    sum += layer.fraction;
  }
  check(std::abs(sum - 1.0) <= kMixTolerance,
        "layer fractions must sum to 1");
}

}  // namespace

SyntheticSpec paper_synthetic_spec(std::int32_t nx, std::int32_t ny,
                                   std::string name) {
  SyntheticSpec spec;
  spec.nx = nx;
  spec.ny = ny;
  spec.name = name.empty() ? "synthetic-" + std::to_string(nx) + "x" +
                                 std::to_string(ny)
                           : std::move(name);
  for (Material m : all_materials()) {
    spec.layers.push_back({m, kPaperMaterialRatios[material_index(m)]});
  }
  return spec;
}

InputDeck make_synthetic_deck(const SyntheticSpec& spec) {
  check_spec(spec);
  Grid grid(spec.nx, spec.ny);
  const auto layer_count = static_cast<std::int32_t>(spec.layers.size());

  // Column breaks from the cumulative fractions, clamped so every layer
  // keeps at least one column even on tiny grids (the same scheme as
  // make_cylindrical_deck, generalized to any mix).
  std::vector<std::int32_t> breaks(spec.layers.size());
  double cumulative = 0.0;
  for (std::int32_t l = 0; l < layer_count; ++l) {
    cumulative += spec.layers[static_cast<std::size_t>(l)].fraction;
    const auto target = static_cast<std::int32_t>(
        std::lround(cumulative * static_cast<double>(spec.nx)));
    const std::int32_t lowest = l + 1;
    const std::int32_t highest = spec.nx - (layer_count - 1 - l);
    std::int32_t at = std::clamp(target, lowest, highest);
    if (l > 0) at = std::max(at, breaks[static_cast<std::size_t>(l - 1)] + 1);
    breaks[static_cast<std::size_t>(l)] = at;
  }
  breaks.back() = spec.nx;

  std::vector<Material> materials(static_cast<std::size_t>(grid.num_cells()));
  for (std::int32_t j = 0; j < spec.ny; ++j) {
    std::int32_t layer = 0;
    for (std::int32_t i = 0; i < spec.nx; ++i) {
      while (i >= breaks[static_cast<std::size_t>(layer)]) ++layer;
      materials[static_cast<std::size_t>(grid.cell_at(i, j))] =
          spec.layers[static_cast<std::size_t>(layer)].material;
    }
  }

  const Point detonator{0.0, 0.4 * static_cast<double>(spec.ny)};
  return InputDeck(spec.name, grid, std::move(materials), detonator);
}

}  // namespace krak::mesh
