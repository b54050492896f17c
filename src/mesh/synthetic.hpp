#pragma once

#include <string>
#include <vector>

#include "mesh/deck.hpp"

namespace krak::mesh {

/// Specification of a deterministic synthetic deck: a layered cylinder
/// like the paper's (Figure 1), but with a free grid size and material
/// mix so benches can emit meshes far past the three standard decks —
/// the 100k-rank regime needs ≥100k useful cells to partition
/// (docs/PERFORMANCE.md, "The 100k-rank regime"). Specs are built in
/// memory, usually by paper_synthetic_spec.
struct SyntheticSpec {
  /// One radial layer: a material and its fraction of the columns.
  struct Layer {
    Material material = Material::kHEGas;
    double fraction = 0.0;
  };

  std::string name = "synthetic";
  std::int32_t nx = 0;
  std::int32_t ny = 0;
  /// Inner-to-outer radial layers; see paper_synthetic_spec for the
  /// paper-shaped default mix.
  std::vector<Layer> layers;
};

/// A spec with the paper's four-layer material mix (kPaperMaterialRatios)
/// on an nx x ny grid; `name` defaults to "synthetic-NXxNY".
[[nodiscard]] SyntheticSpec paper_synthetic_spec(std::int32_t nx,
                                                 std::int32_t ny,
                                                 std::string name = "");

/// Materialize the spec into a deck: layer column breaks come from the
/// cumulative fractions (every layer keeps at least one column), the
/// detonator takes the paper's placement (on the axis of rotation,
/// slightly below center, as make_cylindrical_deck places it), and the
/// result is a pure function of the spec — bit-identical across runs,
/// platforms, and thread counts. Throws KrakError on an invalid spec
/// (no layers, non-positive fractions, fractions not summing to 1,
/// fewer columns than layers).
[[nodiscard]] InputDeck make_synthetic_deck(const SyntheticSpec& spec);

}  // namespace krak::mesh
