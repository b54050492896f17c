// The synthetic deck generator contract: specs materialize
// deterministically, the paper-shaped default reproduces the standard
// cylindrical layering, and specs that cannot form a deck are rejected
// (the large-deck path of docs/PERFORMANCE.md, "The 100k-rank regime").

#include "mesh/synthetic.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace krak::mesh {
namespace {

TEST(Synthetic, PaperSpecReproducesCylindricalLayering) {
  const InputDeck synthetic = make_synthetic_deck(paper_synthetic_spec(80, 40));
  const InputDeck cylinder = make_cylindrical_deck(80, 40);
  EXPECT_EQ(synthetic.materials(), cylinder.materials());
  EXPECT_EQ(synthetic.detonator(), cylinder.detonator());
}

TEST(Synthetic, EmitsAtLeastHundredThousandUsefulCells) {
  const SyntheticSpec spec = paper_synthetic_spec(1024, 128);
  const InputDeck deck = make_synthetic_deck(spec);
  EXPECT_GE(deck.grid().num_cells(), 100'000);
  // Paper-shaped mix: every material present, ratios near Table 2's.
  EXPECT_EQ(deck.distinct_material_count(), kMaterialCount);
  const auto ratios = deck.material_ratios();
  for (std::size_t i = 0; i < kMaterialCount; ++i) {
    EXPECT_NEAR(ratios[i], kPaperMaterialRatios[i], 0.01) << "material " << i;
  }
}

TEST(Synthetic, DeterministicAcrossCalls) {
  const SyntheticSpec spec = paper_synthetic_spec(256, 64);
  const InputDeck a = make_synthetic_deck(spec);
  const InputDeck b = make_synthetic_deck(spec);
  EXPECT_EQ(a.materials(), b.materials());
  EXPECT_EQ(a.name(), b.name());
}

TEST(Synthetic, OmittedDetonatorUsesPaperPlacement) {
  const InputDeck deck = make_synthetic_deck(paper_synthetic_spec(128, 50));
  EXPECT_EQ(deck.detonator(), (Point{0.0, 20.0}));
}

TEST(Synthetic, CustomMixKeepsEveryLayerAtLeastOneColumn) {
  SyntheticSpec spec;
  spec.nx = 5;
  spec.ny = 2;
  spec.layers = {{Material::kHEGas, 0.98},
                 {Material::kFoam, 0.01},
                 {Material::kAluminumOuter, 0.01}};
  const InputDeck deck = make_synthetic_deck(spec);
  EXPECT_EQ(deck.distinct_material_count(), 3u);
}

TEST(Synthetic, InvalidSpecRejectedByGenerator) {
  SyntheticSpec spec;
  spec.nx = 16;
  spec.ny = 16;
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // no layers
  spec.layers = {{Material::kHEGas, 0.7}};
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // sum != 1
  spec.layers = {{Material::kHEGas, 1.5}, {Material::kFoam, -0.5}};
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // negative
  spec.layers = {{Material::kHEGas, 1.0}};
  spec.ny = 0;
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // bad grid
  spec.ny = 8;
  spec.nx = 2;
  spec.layers = {{Material::kHEGas, 0.3},
                 {Material::kFoam, 0.3},
                 {Material::kAluminumInner, 0.4}};
  EXPECT_THROW((void)make_synthetic_deck(spec), util::KrakError);  // 2 < 3
}

}  // namespace
}  // namespace krak::mesh
