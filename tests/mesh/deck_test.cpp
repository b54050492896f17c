#include "mesh/deck.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace krak::mesh {
namespace {

TEST(InputDeck, MaterialCountMustMatchCells) {
  Grid g(2, 2);
  std::vector<Material> three(3, Material::kFoam);
  EXPECT_THROW(InputDeck("bad", g, three, Point{}), util::InvalidArgument);
}

TEST(StandardDecks, CellCountsMatchPaper) {
  // Section 2.1: small 3,200; medium 204,800; large 819,200 cells.
  EXPECT_EQ(make_standard_deck(DeckSize::kSmall).grid().num_cells(), 3200);
  EXPECT_EQ(make_standard_deck(DeckSize::kMedium).grid().num_cells(), 204800);
  EXPECT_EQ(make_standard_deck(DeckSize::kLarge).grid().num_cells(), 819200);
  EXPECT_EQ(standard_deck_cells(DeckSize::kSmall), 3200);
  EXPECT_EQ(standard_deck_cells(DeckSize::kMedium), 204800);
  EXPECT_EQ(standard_deck_cells(DeckSize::kLarge), 819200);
}

TEST(StandardDecks, Figure2DeckHas65536Cells) {
  EXPECT_EQ(make_figure2_deck().grid().num_cells(), 65536);
}

TEST(StandardDecks, AllFourMaterialsPresent) {
  for (DeckSize size :
       {DeckSize::kSmall, DeckSize::kMedium, DeckSize::kLarge}) {
    const InputDeck deck = make_standard_deck(size);
    EXPECT_EQ(deck.distinct_material_count(), kMaterialCount)
        << deck_size_name(size);
  }
}

TEST(StandardDecks, RatiosApproximatePaperTable2) {
  // Table 2 heterogeneous row: 39.1 / 17.2 / 20.3 / 23.4 percent. The
  // generator quantizes layer boundaries to whole columns, so allow a
  // one-column tolerance.
  for (DeckSize size :
       {DeckSize::kSmall, DeckSize::kMedium, DeckSize::kLarge}) {
    const InputDeck deck = make_standard_deck(size);
    const auto ratios = deck.material_ratios();
    const double column = 1.0 / static_cast<double>(deck.grid().nx());
    for (std::size_t m = 0; m < kMaterialCount; ++m) {
      EXPECT_NEAR(ratios[m], kPaperMaterialRatios[m], column + 1e-9)
          << deck_size_name(size) << " material " << m;
    }
  }
  // The general model reads the constant itself as the composition.
  double paper_sum = 0.0;
  for (const double r : kPaperMaterialRatios) paper_sum += r;
  EXPECT_NEAR(paper_sum, 1.0, 1e-12);
}

TEST(StandardDecks, RatiosSumToOne) {
  const InputDeck deck = make_standard_deck(DeckSize::kSmall);
  const auto ratios = deck.material_ratios();
  double sum = 0.0;
  for (double r : ratios) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(CylindricalDeck, LayersAreRadiallyOrdered) {
  // Along any row, material index must be non-decreasing in the layer
  // order HE gas -> Al inner -> foam -> Al outer.
  const InputDeck deck = make_cylindrical_deck(40, 10);
  const Grid& g = deck.grid();
  for (std::int32_t j = 0; j < g.ny(); ++j) {
    std::size_t previous = 0;
    for (std::int32_t i = 0; i < g.nx(); ++i) {
      const std::size_t index = material_index(deck.material_of(g.cell_at(i, j)));
      EXPECT_GE(index, previous);
      previous = index;
    }
  }
}

TEST(CylindricalDeck, InnerColumnIsHEGasOuterIsAluminum) {
  const InputDeck deck = make_cylindrical_deck(80, 40);
  const Grid& g = deck.grid();
  EXPECT_EQ(deck.material_of(g.cell_at(0, 0)), Material::kHEGas);
  EXPECT_EQ(deck.material_of(g.cell_at(g.nx() - 1, 0)),
            Material::kAluminumOuter);
}

TEST(CylindricalDeck, MaterialsConstantAlongAxis) {
  const InputDeck deck = make_cylindrical_deck(32, 16);
  const Grid& g = deck.grid();
  for (std::int32_t i = 0; i < g.nx(); ++i) {
    const Material reference = deck.material_of(g.cell_at(i, 0));
    for (std::int32_t j = 1; j < g.ny(); ++j) {
      EXPECT_EQ(deck.material_of(g.cell_at(i, j)), reference);
    }
  }
}

TEST(CylindricalDeck, DetonatorOnAxisBelowCenter) {
  // Section 2.1: "An explosive detonator is placed on the axis of
  // rotation, slightly below center."
  const InputDeck deck = make_cylindrical_deck(80, 40);
  EXPECT_DOUBLE_EQ(deck.detonator().x, 0.0);
  EXPECT_LT(deck.detonator().y, 20.0);
  EXPECT_GT(deck.detonator().y, 0.0);
}

TEST(CylindricalDeck, TinyGridStillHasFourLayers) {
  const InputDeck deck = make_cylindrical_deck(4, 2);
  EXPECT_EQ(deck.distinct_material_count(), kMaterialCount);
}

TEST(CylindricalDeck, RejectsDegenerateDimensions) {
  EXPECT_THROW((void)make_cylindrical_deck(3, 2), util::InvalidArgument);
  EXPECT_THROW((void)make_cylindrical_deck(8, 0), util::InvalidArgument);
}

TEST(UniformDeck, SingleMaterialEverywhere) {
  const InputDeck deck = make_uniform_deck(8, 8, Material::kFoam);
  EXPECT_EQ(deck.distinct_material_count(), 1u);
  const auto counts = deck.material_cell_counts();
  EXPECT_EQ(counts[material_index(Material::kFoam)], 64);
}

TEST(InputDeck, MaterialOfChecksRange) {
  const InputDeck deck = make_uniform_deck(2, 2, Material::kHEGas);
  EXPECT_THROW((void)deck.material_of(4), util::InvalidArgument);
  EXPECT_THROW((void)deck.material_of(-1), util::InvalidArgument);
}

TEST(DeckSizeName, CoversAllSizes) {
  EXPECT_EQ(deck_size_name(DeckSize::kSmall), "small");
  EXPECT_EQ(deck_size_name(DeckSize::kMedium), "medium");
  EXPECT_EQ(deck_size_name(DeckSize::kLarge), "large");
}

TEST(DeckSizeName, ParsesEachNameAndRefusesOthers) {
  for (DeckSize size : {DeckSize::kSmall, DeckSize::kMedium, DeckSize::kLarge}) {
    EXPECT_EQ(parse_deck_size(deck_size_name(size)), size);
  }
  // A typo used to fall back to the medium deck without a word.
  EXPECT_THROW((void)parse_deck_size("hugee"), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::mesh
