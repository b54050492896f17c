#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mesh/deck.hpp"
#include "partition/dualgraph.hpp"
#include "util/rng.hpp"

namespace krak::partition {

using PeId = std::int32_t;

/// An assignment of every cell (graph vertex) to one processor.
class Partition {
 public:
  /// assignment[cell] = pe; every value must lie in [0, parts).
  Partition(std::int32_t parts, std::vector<PeId> assignment);

  [[nodiscard]] std::int32_t parts() const { return parts_; }
  [[nodiscard]] std::int64_t num_cells() const {
    return static_cast<std::int64_t>(assignment_.size());
  }

  [[nodiscard]] PeId pe_of(std::int64_t cell) const;
  [[nodiscard]] const std::vector<PeId>& assignment() const {
    return assignment_;
  }

  /// Cells per processor.
  [[nodiscard]] std::vector<std::int64_t> cell_counts() const;

 private:
  std::int32_t parts_;
  std::vector<PeId> assignment_;
};

/// Aggregate quality metrics of a partition with respect to its graph.
struct PartitionQuality {
  std::int64_t min_cells = 0;
  std::int64_t max_cells = 0;
  double mean_cells = 0.0;
  /// max_cells / mean_cells; 1.0 is perfect balance.
  double imbalance = 0.0;
  /// Total weight of edges crossing processor boundaries.
  std::int64_t edge_cut = 0;
  /// Number of processors with zero cells.
  std::int32_t empty_parts = 0;
  double mean_neighbors = 0.0;
  std::int32_t max_neighbors = 0;
};

[[nodiscard]] PartitionQuality evaluate_partition(const Graph& graph,
                                                  const Partition& partition);

/// Available partitioning algorithms.
enum class PartitionMethod {
  /// Contiguous runs of cells in row-major order; the naive baseline.
  kStrip,
  /// Recursive coordinate bisection on cell centers.
  kRcb,
  /// Multilevel: heavy-edge-matching coarsening, greedy graph-growing
  /// initial partition, FM boundary refinement per level. This is the
  /// project's stand-in for Metis (Section 2 of the paper).
  kMultilevel,
  /// Material-aware: every material region is RCB-split across ALL
  /// processors, so each subgrid holds the global material mix. Trades
  /// edge cut for per-material load balance — the data-partitioning
  /// "alteration to the application" the paper's introduction proposes
  /// evaluating with the model.
  kMaterialAware,
};

[[nodiscard]] std::string_view partition_method_name(PartitionMethod method);

/// The method partition_method_name spells `name`; InvalidArgument for
/// any other.
[[nodiscard]] PartitionMethod parse_partition_method(std::string_view name);

/// Partition a deck's cells into `parts` subgrids.
///
/// `seed` controls tie-breaking in the multilevel method; strip and RCB
/// are fully deterministic regardless of seed. `threads` is accepted
/// and ignored: every method is serial. It stays only because
/// perfbench/krakperf.cpp still passes it; nothing else may.
[[nodiscard]] Partition partition_deck(const mesh::InputDeck& deck,
                                       std::int32_t parts,
                                       PartitionMethod method,
                                       std::uint64_t seed = 1,
                                       std::int32_t threads = 1);

/// Strip partition of n cells in index order.
[[nodiscard]] Partition partition_strips(std::int64_t num_cells,
                                         std::int32_t parts);

/// Recursive coordinate bisection over arbitrary points; handles
/// non-power-of-two part counts by proportional splits.
[[nodiscard]] Partition partition_rcb(const std::vector<mesh::Point>& centers,
                                      std::int32_t parts);

/// Multilevel k-way partition of a CSR graph; the assignment is a pure
/// function of (graph, parts, seed). `ladder_key` is an identity token
/// for the coarsening ladder cache (docs/PERFORMANCE.md): two calls
/// passing the same key assert that their input graphs are identical,
/// and partition_deck derives it from the grid dimensions, which fully
/// determine the unweighted dual graph. Leave it empty to fingerprint
/// the graph content instead — always correct, costs one O(V+E) hash
/// per call. The key never changes the assignment.
[[nodiscard]] Partition partition_multilevel(
    const Graph& graph, std::int32_t parts, std::uint64_t seed = 1,
    std::optional<std::uint64_t> ladder_key = std::nullopt);

/// Drop every cached coarsening ladder (test isolation: the determinism
/// suite clears it so coarsening is genuinely re-executed rather than
/// replayed from cache).
void clear_multilevel_ladder_cache();

/// Cost-aware multilevel partition: balances the model's per-cell
/// material costs instead of raw cell counts (the "alteration to the
/// application" loop closed: the model's own calibration drives the
/// partitioner). `material_costs` is typically the calibrated per-cell
/// cost of the dominant material-dependent phases.
[[nodiscard]] Partition partition_cost_aware(
    const mesh::InputDeck& deck, std::int32_t parts,
    std::span<const double, mesh::kMaterialCount> material_costs,
    std::uint64_t seed = 1);

/// Material-aware partition: each material's cells are RCB-split into
/// `parts` pieces and piece p goes to processor p, giving every
/// processor its proportional share of every material.
[[nodiscard]] Partition partition_material_aware(const mesh::InputDeck& deck,
                                                 std::int32_t parts);

}  // namespace krak::partition
