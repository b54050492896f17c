#pragma once

/// Umbrella header: the whole public API of the krakmodel libraries.
/// Fine-grained includes (e.g. "core/model.hpp") are preferred in
/// library code; this header is a convenience for applications and
/// exploratory tools.

#include "core/calibration.hpp"   // IWYU pragma: export
#include "core/campaign.hpp"      // IWYU pragma: export
#include "core/comm_model.hpp"    // IWYU pragma: export
#include "core/comp_model.hpp"    // IWYU pragma: export
#include "core/cost_table.hpp"    // IWYU pragma: export
#include "core/general_model.hpp" // IWYU pragma: export
#include "core/mesh_specific_model.hpp"  // IWYU pragma: export
#include "core/model.hpp"         // IWYU pragma: export
#include "core/optimizer.hpp"     // IWYU pragma: export
#include "core/report.hpp"        // IWYU pragma: export
#include "core/sensitivity.hpp"   // IWYU pragma: export
#include "core/table_io.hpp"      // IWYU pragma: export
#include "core/validation.hpp"    // IWYU pragma: export
#include "hydro/eos.hpp"          // IWYU pragma: export
#include "hydro/measure.hpp"      // IWYU pragma: export
#include "hydro/solver.hpp"       // IWYU pragma: export
#include "hydro/state.hpp"        // IWYU pragma: export
#include "mesh/deck.hpp"          // IWYU pragma: export
#include "mesh/grid.hpp"          // IWYU pragma: export
#include "mesh/material.hpp"      // IWYU pragma: export
#include "network/collectives.hpp"  // IWYU pragma: export
#include "network/machine.hpp"    // IWYU pragma: export
#include "network/msgmodel.hpp"   // IWYU pragma: export
#include "network/topology.hpp"   // IWYU pragma: export
#include "partition/partition.hpp"  // IWYU pragma: export
#include "partition/stats.hpp"    // IWYU pragma: export
#include "sim/simulator.hpp"      // IWYU pragma: export
#include "simapp/simkrak.hpp"     // IWYU pragma: export
#include "simapp/trace.hpp"       // IWYU pragma: export
#include "util/cli.hpp"           // IWYU pragma: export
#include "util/stats.hpp"         // IWYU pragma: export
