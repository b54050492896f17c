#pragma once

#include <string>

#include "core/calibration.hpp"
#include "core/model.hpp"
#include "core/validation.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/simkrak.hpp"

namespace krakbench {

/// Everything a reproduction binary needs: the ground-truth engine (the
/// "application"), the validation machine, and a model calibrated with
/// Method 2 (the method the paper uses for its validation results) on
/// the medium deck at four processor counts spanning the knee.
struct Environment {
  krak::simapp::ComputationCostEngine engine;
  krak::network::MachineConfig machine;
  krak::core::KrakModel model;

  Environment();
};

/// Lazily constructed shared environment (calibration takes about half a
/// second; each bench binary builds it once).
[[nodiscard]] const Environment& environment();

/// Uniform banner naming the experiment and the paper artifact it
/// regenerates.
void print_header(const std::string& title, const std::string& paper_ref);

}  // namespace krakbench
