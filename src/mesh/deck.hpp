#pragma once

#include <array>
#include <string>
#include <vector>

#include "mesh/grid.hpp"
#include "mesh/material.hpp"

namespace krak::mesh {

/// The three spatial grid sizes studied by the paper (Section 2.1).
enum class DeckSize {
  kSmall,   ///< 3,200 cells (80 x 40)
  kMedium,  ///< 204,800 cells (640 x 320)
  kLarge,   ///< 819,200 cells (1,280 x 640)
};

[[nodiscard]] std::string_view deck_size_name(DeckSize size);

/// The size deck_size_name spells `name`; InvalidArgument for any other.
[[nodiscard]] DeckSize parse_deck_size(std::string_view name);

/// An input deck: a grid plus one material per cell and a detonator
/// location (Section 2.1). Immutable after construction.
class InputDeck {
 public:
  /// materials.size() must equal grid.num_cells().
  InputDeck(std::string name, Grid grid, std::vector<Material> materials,
            Point detonator);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Grid& grid() const { return grid_; }
  [[nodiscard]] Point detonator() const { return detonator_; }

  [[nodiscard]] Material material_of(CellId cell) const;
  [[nodiscard]] const std::vector<Material>& materials() const {
    return materials_;
  }

  /// Number of cells of each material.
  [[nodiscard]] std::array<std::int64_t, kMaterialCount> material_cell_counts()
      const;

  /// Fraction of cells of each material (Table 2's heterogeneous row).
  [[nodiscard]] std::array<double, kMaterialCount> material_ratios() const;

  /// Count of distinct materials present.
  [[nodiscard]] std::size_t distinct_material_count() const;

 private:
  std::string name_;
  Grid grid_;
  std::vector<Material> materials_;
  Point detonator_;
};

/// The paper's global material ratios for the heterogeneous general model
/// (Table 2): H.E. gas 39.1%, inner aluminum 17.2%, foam 20.3%, outer
/// aluminum 23.4%.
inline constexpr std::array<double, kMaterialCount> kPaperMaterialRatios = {
    0.391, 0.172, 0.203, 0.234};

/// Build the Figure 1 cylindrical deck on an nx x ny grid: radial layers
/// of HE gas, inner aluminum, foam, and outer aluminum whose column
/// spans approximate kPaperMaterialRatios, with the detonator on the
/// axis of rotation slightly below center.
[[nodiscard]] InputDeck make_cylindrical_deck(std::int32_t nx, std::int32_t ny);

/// One of the paper's three standard decks (2:1 axial:radial aspect).
[[nodiscard]] InputDeck make_standard_deck(DeckSize size);

/// The 65,536-cell deck used for Figure 2 (256 x 256).
[[nodiscard]] InputDeck make_figure2_deck();

/// Single-material deck for calibration runs.
[[nodiscard]] InputDeck make_uniform_deck(std::int32_t nx, std::int32_t ny,
                                          Material material);

/// Total cell count for a standard deck size.
[[nodiscard]] std::int64_t standard_deck_cells(DeckSize size);

}  // namespace krak::mesh
