// Supplementary: the Figure 3 measurement campaign run on REAL code.
// The hydro mini-app (src/hydro) is timed with wall clocks at a ladder
// of subgrid sizes, one material at a time, exactly like the paper's
// contrived-grid calibration. The resulting per-cell cost curves are
// not flat in the subgrid size — on this lean solver the dominant
// effect is the cache hierarchy (cost rises with working-set size),
// while production Krak's per-phase fixed overheads dominate at small
// sizes — demonstrating on genuine measurements why T() needs its
// |Cells| argument. Results are wall-clock and thus machine-dependent;
// this bench is narrative, not pass/fail. It takes no options.

#include <iostream>

#include "common.hpp"
#include "hydro/measure.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(const krak::util::ArgParser& /*args*/) {
  using namespace krak;
  krakbench::print_header(
      "Real-code per-cell cost curves (hydro mini-app, wall clock)",
      "Figure 3's methodology on real measurements");

  const std::vector<std::int64_t> sizes = {16,   64,    256,   1024,
                                           4096, 16384, 65536, 262144};
  for (mesh::Material material :
       {mesh::Material::kHEGas, mesh::Material::kFoam}) {
    std::cout << "Material: " << mesh::material_name(material) << "\n";
    util::TextTable table({"Cells", "Total (ns/cell/step)", "EOS", "Forces",
                           "Integrate", "Energy"});
    for (std::int64_t cells : sizes) {
      const std::int64_t steps = cells <= 1024 ? 50 : 8;
      const hydro::HydroCostSample sample =
          hydro::measure_uniform_cost(material, cells, steps);
      const auto ns = [&](hydro::HydroPhase phase) {
        return util::format_double(
            sample.per_cell_seconds[static_cast<std::size_t>(phase)] * 1e9,
            1);
      };
      table.add_row({std::to_string(sample.cells),
                     util::format_double(
                         sample.total_per_cell_seconds() * 1e9, 1),
                     ns(hydro::HydroPhase::kEos),
                     ns(hydro::HydroPhase::kForces),
                     ns(hydro::HydroPhase::kIntegrate),
                     ns(hydro::HydroPhase::kEnergy)});
    }
    std::cout << table << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krak::util::run_main(argc, argv, {}, run);
}
