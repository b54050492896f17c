#include "common.hpp"

#include <iostream>

namespace krakbench {

Environment::Environment()
    : machine(krak::network::make_es45_qsnet()),
      model(krak::core::calibrate_from_input(
                engine,
                krak::mesh::make_standard_deck(krak::mesh::DeckSize::kMedium),
                {8, 64, 512, 4096}),
            machine) {}

const Environment& environment() {
  static const Environment instance;
  return instance;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref << "\n";
  std::cout << "(Barker, Pakin, Kerbyson: \"A Performance Model of the Krak "
               "Hydrodynamics Application\", ICPP 2006)\n\n";
}

}  // namespace krakbench
