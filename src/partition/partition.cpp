#include "partition/partition.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace krak::partition {

using util::check;

namespace {

/// Per-method call and timing probes (docs/OBSERVABILITY.md).
void record_partition_metrics(PartitionMethod method, double seconds) {
  obs::Registry& registry = obs::global_registry();
  const std::string prefix =
      "partition." + std::string(partition_method_name(method));
  registry.counter(prefix + ".calls").add(1);
  registry.timer(prefix + ".seconds").record(seconds);
}

/// The unweighted dual graph is fully determined by the grid
/// dimensions, and a campaign partitions the same few decks at many PE
/// counts — memoize the CSR arrays the same way (and under the same
/// key) as the coarsening ladder. Entries are immutable; concurrent
/// builders of the same key produce identical graphs, so whichever
/// insert wins is correct.
std::shared_ptr<const Graph> dual_graph_for(const mesh::Grid& grid) {
  constexpr std::size_t kMaxEntries = 4;
  static std::mutex mutex;
  static std::vector<std::pair<std::uint64_t, std::shared_ptr<const Graph>>>
      entries;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(grid.nx()))
       << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(grid.ny()));
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (auto& entry : entries) {
      if (entry.first == key) {
        std::swap(entry, entries.front());
        return entries.front().second;
      }
    }
  }
  auto graph = std::make_shared<const Graph>(build_dual_graph(grid));
  const std::lock_guard<std::mutex> lock(mutex);
  entries.emplace(entries.begin(), key, graph);
  if (entries.size() > kMaxEntries) entries.pop_back();
  return graph;
}

}  // namespace

Partition::Partition(std::int32_t parts, std::vector<PeId> assignment)
    : parts_(parts), assignment_(std::move(assignment)) {
  KRAK_REQUIRE(parts > 0, "Partition requires at least one part");
  KRAK_REQUIRE(!assignment_.empty(), "Partition requires at least one cell");
  for (PeId pe : assignment_) {
    KRAK_REQUIRE(pe >= 0 && pe < parts, "Partition assignment out of range");
  }
}

PeId Partition::pe_of(std::int64_t cell) const {
  KRAK_REQUIRE(cell >= 0 && cell < num_cells(), "cell id out of range");
  return assignment_[static_cast<std::size_t>(cell)];
}

std::vector<std::int64_t> Partition::cell_counts() const {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(parts_), 0);
  for (PeId pe : assignment_) ++counts[static_cast<std::size_t>(pe)];
  return counts;
}

PartitionQuality evaluate_partition(const Graph& graph,
                                    const Partition& partition) {
  KRAK_REQUIRE(graph.num_vertices() == partition.num_cells(),
               "graph/partition size mismatch");
  PartitionQuality q;
  const auto counts = partition.cell_counts();
  q.min_cells = *std::min_element(counts.begin(), counts.end());
  q.max_cells = *std::max_element(counts.begin(), counts.end());
  q.mean_cells = static_cast<double>(partition.num_cells()) /
                 static_cast<double>(partition.parts());
  q.imbalance = static_cast<double>(q.max_cells) / q.mean_cells;
  q.empty_parts = static_cast<std::int32_t>(
      std::count(counts.begin(), counts.end(), std::int64_t{0}));

  std::int64_t cut = 0;
  std::vector<std::set<PeId>> neighbor_sets(
      static_cast<std::size_t>(partition.parts()));
  for (std::int32_t v = 0; v < graph.num_vertices(); ++v) {
    const PeId pv = partition.pe_of(v);
    const auto neighbors = graph.neighbors(v);
    const auto weights = graph.edge_weights(v);
    for (std::size_t e = 0; e < neighbors.size(); ++e) {
      const PeId pu = partition.pe_of(neighbors[e]);
      if (pu != pv) {
        cut += weights[e];
        neighbor_sets[static_cast<std::size_t>(pv)].insert(pu);
      }
    }
  }
  q.edge_cut = cut / 2;  // each cut edge visited from both endpoints

  std::int64_t total_neighbors = 0;
  for (const auto& s : neighbor_sets) {
    total_neighbors += static_cast<std::int64_t>(s.size());
    q.max_neighbors =
        std::max(q.max_neighbors, static_cast<std::int32_t>(s.size()));
  }
  q.mean_neighbors = static_cast<double>(total_neighbors) /
                     static_cast<double>(partition.parts());
  return q;
}

std::string_view partition_method_name(PartitionMethod method) {
  switch (method) {
    case PartitionMethod::kStrip: return "strip";
    case PartitionMethod::kRcb: return "rcb";
    case PartitionMethod::kMultilevel: return "multilevel";
    case PartitionMethod::kMaterialAware: return "material-aware";
  }
  return "unknown";
}

PartitionMethod parse_partition_method(std::string_view name) {
  for (PartitionMethod method :
       {PartitionMethod::kStrip, PartitionMethod::kRcb,
        PartitionMethod::kMultilevel, PartitionMethod::kMaterialAware}) {
    if (name == partition_method_name(method)) return method;
  }
  throw util::InvalidArgument("unknown partition method '" +
                              std::string(name) + "'");
}

Partition partition_cost_aware(
    const mesh::InputDeck& deck, std::int32_t parts,
    std::span<const double, mesh::kMaterialCount> material_costs,
    std::uint64_t seed) {
  const Graph graph = build_weighted_dual_graph(deck, material_costs);
  return partition_multilevel(graph, parts, seed);
}

Partition partition_strips(std::int64_t num_cells, std::int32_t parts) {
  KRAK_REQUIRE(num_cells > 0, "partition_strips requires cells");
  KRAK_REQUIRE(parts > 0, "partition_strips requires parts");
  KRAK_REQUIRE(parts <= num_cells, "more parts than cells");
  std::vector<PeId> assignment(static_cast<std::size_t>(num_cells));
  // Distribute the remainder one cell at a time so strip sizes differ by
  // at most one.
  const std::int64_t base = num_cells / parts;
  const std::int64_t extra = num_cells % parts;
  std::int64_t cell = 0;
  for (std::int32_t pe = 0; pe < parts; ++pe) {
    const std::int64_t size = base + (pe < extra ? 1 : 0);
    for (std::int64_t k = 0; k < size; ++k) {
      assignment[static_cast<std::size_t>(cell++)] = pe;
    }
  }
  return Partition(parts, std::move(assignment));
}

Partition partition_deck(const mesh::InputDeck& deck, std::int32_t parts,
                         PartitionMethod method, std::uint64_t seed,
                         std::int32_t /*threads*/) {
  const mesh::Grid& grid = deck.grid();
  KRAK_REQUIRE(parts > 0, "partition_deck requires parts > 0");
  KRAK_REQUIRE(parts <= grid.num_cells(), "more parts than cells");
  const util::Stopwatch watch;
  const auto finish = [&](Partition partition) {
    record_partition_metrics(method, watch.seconds());
    return partition;
  };
  switch (method) {
    case PartitionMethod::kStrip:
      return finish(partition_strips(grid.num_cells(), parts));
    case PartitionMethod::kRcb: {
      std::vector<mesh::Point> centers;
      centers.reserve(static_cast<std::size_t>(grid.num_cells()));
      for (std::int64_t cell = 0; cell < grid.num_cells(); ++cell) {
        centers.push_back(grid.cell_center(static_cast<mesh::CellId>(cell)));
      }
      return finish(partition_rcb(centers, parts));
    }
    case PartitionMethod::kMultilevel: {
      const std::shared_ptr<const Graph> graph = dual_graph_for(grid);
      // (nx, ny) is a sound ladder-cache identity for the same reason
      // it keys the dual-graph cache, and saves hashing the CSR arrays
      // on every call.
      const std::uint64_t ladder_key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(grid.nx()))
           << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(grid.ny()));
      return finish(partition_multilevel(*graph, parts, seed, ladder_key));
    }
    case PartitionMethod::kMaterialAware:
      return finish(partition_material_aware(deck, parts));
  }
  KRAK_ASSERT(false, "unknown partition method");
  return partition_strips(grid.num_cells(), parts);  // unreachable
}

}  // namespace krak::partition
