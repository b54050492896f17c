#pragma once

#include <cstdint>

#include "core/cost_table.hpp"
#include "core/report.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"

namespace krak::core {

/// Material-composition assumption of the general model (Section 3.2,
/// Table 2).
enum class GeneralModelMode {
  /// Every subgrid contains the global material ratios. Accurate at
  /// small processor counts; over-predicts at large counts because it
  /// charges per-material boundary-exchange messages whose latency the
  /// real, homogeneous subgrids never pay (Section 5.2).
  kHeterogeneous,
  /// Every subgrid is single-material; each phase is charged for the
  /// most computationally taxing material. The accurate regime at large
  /// processor counts (within 3% at 512 PEs in the paper).
  kHomogeneous,
};

[[nodiscard]] std::string_view general_model_mode_name(GeneralModelMode mode);

/// The "general" Krak performance model of Section 3.2 / 4.
///
/// Instead of a real partition it assumes: equal square subgrids of
/// Cells/PEs cells, sqrt(Cells/PEs) faces per processor boundary, ghost
/// nodes = faces + 1 with half local and half remote, boundary faces
/// divided equally among the materials in use (heterogeneous) or a
/// single material per boundary (homogeneous).
class GeneralModel {
 public:
  /// The global material composition is the paper's input deck's,
  /// mesh::kPaperMaterialRatios (Table 2's heterogeneous row).
  GeneralModel(CostTable table, network::MachineConfig machine);

  /// Predict one iteration of a `total_cells` problem on `pes`
  /// processors.
  [[nodiscard]] PredictionReport predict(std::int64_t total_cells,
                                         std::int32_t pes,
                                         GeneralModelMode mode) const;

  /// Subgrid boundary faces per neighbor under the square-subgrid
  /// assumption: sqrt(cells / pes).
  [[nodiscard]] static double boundary_faces(std::int64_t total_cells,
                                             std::int32_t pes);

  [[nodiscard]] const CostTable& cost_table() const { return table_; }
  [[nodiscard]] const network::MachineConfig& machine() const {
    return machine_;
  }

 private:
  [[nodiscard]] double phase_time_heterogeneous(std::int32_t phase,
                                                double cells_per_pe) const;
  [[nodiscard]] double phase_time_homogeneous(std::int32_t phase,
                                              double cells_per_pe) const;

  CostTable table_;
  network::MachineConfig machine_;
};

}  // namespace krak::core
