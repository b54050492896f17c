#include "mesh/deck.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/error.hpp"

namespace krak::mesh {

using util::check;

std::string_view deck_size_name(DeckSize size) {
  switch (size) {
    case DeckSize::kSmall: return "small";
    case DeckSize::kMedium: return "medium";
    case DeckSize::kLarge: return "large";
  }
  return "unknown";
}

DeckSize parse_deck_size(std::string_view name) {
  for (DeckSize size :
       {DeckSize::kSmall, DeckSize::kMedium, DeckSize::kLarge}) {
    if (name == deck_size_name(size)) return size;
  }
  throw util::InvalidArgument("unknown deck size '" + std::string(name) + "'");
}

InputDeck::InputDeck(std::string name, Grid grid,
                     std::vector<Material> materials, Point detonator)
    : name_(std::move(name)),
      grid_(grid),
      materials_(std::move(materials)),
      detonator_(detonator) {
  check(static_cast<std::int64_t>(materials_.size()) == grid_.num_cells(),
        "InputDeck material count must equal cell count");
}

Material InputDeck::material_of(CellId cell) const {
  check(cell >= 0 && cell < grid_.num_cells(), "cell id out of range");
  return materials_[static_cast<std::size_t>(cell)];
}

std::array<std::int64_t, kMaterialCount> InputDeck::material_cell_counts()
    const {
  std::array<std::int64_t, kMaterialCount> counts{};
  for (Material m : materials_) ++counts[material_index(m)];
  return counts;
}

std::array<double, kMaterialCount> InputDeck::material_ratios() const {
  const auto counts = material_cell_counts();
  const auto total = static_cast<double>(grid_.num_cells());
  std::array<double, kMaterialCount> ratios{};
  for (std::size_t i = 0; i < kMaterialCount; ++i) {
    ratios[i] = static_cast<double>(counts[i]) / total;
  }
  return ratios;
}

std::size_t InputDeck::distinct_material_count() const {
  const auto counts = material_cell_counts();
  std::size_t distinct = 0;
  for (std::int64_t c : counts) {
    if (c > 0) ++distinct;
  }
  return distinct;
}

InputDeck make_cylindrical_deck(std::int32_t nx, std::int32_t ny) {
  check(nx >= 4, "cylindrical deck needs at least 4 radial columns");
  check(ny >= 1, "cylindrical deck needs at least 1 axial row");
  Grid grid(nx, ny);

  // Radial layer boundaries (in columns) from the paper's cumulative
  // material fractions: HE gas 39.1%, +Al inner 17.2% -> 56.3%,
  // +foam 20.3% -> 76.6%, +Al outer 23.4% -> 100%.
  const auto column_break = [nx](double cumulative_fraction) {
    return static_cast<std::int32_t>(
        std::lround(cumulative_fraction * static_cast<double>(nx)));
  };
  std::array<std::int32_t, 3> breaks = {
      column_break(kPaperMaterialRatios[0]),
      column_break(kPaperMaterialRatios[0] + kPaperMaterialRatios[1]),
      column_break(kPaperMaterialRatios[0] + kPaperMaterialRatios[1] +
                   kPaperMaterialRatios[2])};
  // Force every layer to be at least one column wide on tiny grids.
  breaks[0] = std::clamp(breaks[0], 1, nx - 3);
  breaks[1] = std::clamp(breaks[1], breaks[0] + 1, nx - 2);
  breaks[2] = std::clamp(breaks[2], breaks[1] + 1, nx - 1);

  std::vector<Material> materials(static_cast<std::size_t>(grid.num_cells()));
  for (std::int32_t j = 0; j < ny; ++j) {
    for (std::int32_t i = 0; i < nx; ++i) {
      Material m = Material::kAluminumOuter;
      if (i < breaks[0]) {
        m = Material::kHEGas;
      } else if (i < breaks[1]) {
        m = Material::kAluminumInner;
      } else if (i < breaks[2]) {
        m = Material::kFoam;
      }
      materials[static_cast<std::size_t>(grid.cell_at(i, j))] = m;
    }
  }

  // "An explosive detonator is placed on the axis of rotation, slightly
  // below center" (Section 2.1). The axis is x = 0.
  const Point detonator{0.0, 0.4 * static_cast<double>(ny)};
  const std::string name =
      "cylinder-" + std::to_string(nx) + "x" + std::to_string(ny);
  return InputDeck(name, grid, std::move(materials), detonator);
}

std::int64_t standard_deck_cells(DeckSize size) {
  switch (size) {
    case DeckSize::kSmall: return 3200;
    case DeckSize::kMedium: return 204800;
    case DeckSize::kLarge: return 819200;
  }
  check(false, "unknown deck size");
  return 0;
}

InputDeck make_standard_deck(DeckSize size) {
  // All standard decks keep the same 2:1 (radial:axial) cell aspect so
  // the material layer widths scale with resolution.
  switch (size) {
    case DeckSize::kSmall: return make_cylindrical_deck(80, 40);
    case DeckSize::kMedium: return make_cylindrical_deck(640, 320);
    case DeckSize::kLarge: return make_cylindrical_deck(1280, 640);
  }
  check(false, "unknown deck size");
  return make_cylindrical_deck(4, 4);  // unreachable
}

InputDeck make_figure2_deck() { return make_cylindrical_deck(256, 256); }

namespace {

/// Deck names are single tokens, since they label validation points and
/// lint locations ("deck/<name>"): slugify material names like
/// "Al (Out)" into "al-out".
std::string material_slug(Material material) {
  std::string slug;
  for (char c : material_short_name(material)) {
    if (c == ' ') {
      slug += '-';
    } else if (c != '(' && c != ')') {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return slug;
}

}  // namespace

InputDeck make_uniform_deck(std::int32_t nx, std::int32_t ny,
                            Material material) {
  Grid grid(nx, ny);
  std::vector<Material> materials(static_cast<std::size_t>(grid.num_cells()),
                                  material);
  const std::string name = "uniform-" + material_slug(material) +
                           "-" + std::to_string(nx) + "x" + std::to_string(ny);
  return InputDeck(name, grid, std::move(materials),
                   Point{0.0, 0.4 * static_cast<double>(ny)});
}

}  // namespace krak::mesh
