#include "partition/stats.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/error.hpp"

namespace krak::partition {

namespace {

/// Deterministic node hash (SplitMix64 finalizer) for ghost ownership.
std::uint64_t hash_node(std::int64_t node) {
  auto z = static_cast<std::uint64_t>(node) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One side of one boundary face: the owning PE, the neighbor PE, the
/// face's exchange group, and the face's two endpoint nodes.
struct FaceIncidence {
  PeId pe;
  PeId npe;
  std::uint8_t group;
  mesh::NodeId nodes[2];
};

/// On a quad grid a node touches at most four cells, so at most four
/// distinct PEs can share it.
struct NodeSharers {
  PeId pes[4];
  std::uint8_t count = 0;

  void insert(PeId pe) {
    for (std::uint8_t k = 0; k < count; ++k) {
      if (pes[k] == pe) return;
    }
    pes[count++] = pe;
  }
};

}  // namespace

std::int64_t SubdomainInfo::total_boundary_faces() const {
  std::int64_t total = 0;
  for (const NeighborBoundary& b : neighbors) total += b.total_faces;
  return total;
}

std::int64_t SubdomainInfo::total_ghost_nodes() const {
  std::int64_t total = 0;
  for (const NeighborBoundary& b : neighbors) total += b.total_ghost_nodes();
  return total;
}

PartitionStats::PartitionStats(const mesh::InputDeck& deck,
                               const Partition& partition) {
  const mesh::Grid& grid = deck.grid();
  KRAK_REQUIRE(partition.num_cells() == grid.num_cells(),
               "partition does not match deck");
  const std::int32_t parts = partition.parts();
  subdomains_.resize(static_cast<std::size_t>(parts));
  for (PeId pe = 0; pe < parts; ++pe) {
    subdomains_[static_cast<std::size_t>(pe)].pe = pe;
  }

  // Cells and materials per subdomain.
  for (std::int64_t cell = 0; cell < grid.num_cells(); ++cell) {
    const PeId pe = partition.pe_of(cell);
    SubdomainInfo& sub = subdomains_[static_cast<std::size_t>(pe)];
    ++sub.total_cells;
    ++sub.cells_per_material[mesh::material_index(
        deck.material_of(static_cast<mesh::CellId>(cell)))];
  }

  // Every quantity below is a per-(pe, neighbor) count over *sets* —
  // faces, distinct boundary nodes, distinct sharer PEs — so any
  // traversal producing the same sets produces the same statistics. The
  // grid is structured, which admits flat arrays everywhere the
  // original formulation used nested maps: one incidence record per
  // boundary face side, grouped by sorting, and per-node sharer sets
  // bounded by the quad-grid valence of four.
  const std::int32_t nx = grid.nx();
  const std::int32_t ny = grid.ny();
  const std::vector<PeId>& owner_of = partition.assignment();
  const std::int64_t num_nodes = grid.num_nodes();
  std::vector<FaceIncidence> incidences;
  std::vector<NodeSharers> sharers(static_cast<std::size_t>(num_nodes));
  std::vector<mesh::NodeId> boundary_nodes;

  for (std::int32_t j = 0; j < ny; ++j) {
    for (std::int32_t i = 0; i < nx; ++i) {
      const auto cell = static_cast<mesh::CellId>(j * nx + i);
      const PeId pe = owner_of[static_cast<std::size_t>(cell)];
      // Nodes of the cell's corners; a face's endpoints are two of them.
      const auto row = static_cast<mesh::NodeId>(j * (nx + 1) + i);
      const mesh::NodeId sw = row;
      const mesh::NodeId se = row + 1;
      const auto nw = static_cast<mesh::NodeId>(row + nx + 1);
      const mesh::NodeId ne = nw + 1;
      const auto emit = [&](mesh::CellId neighbor_cell, mesh::NodeId n0,
                            mesh::NodeId n1) {
        const PeId npe = owner_of[static_cast<std::size_t>(neighbor_cell)];
        if (npe == pe) return;
        // The face's exchange group is decided canonically by the cell
        // on the lower-ranked processor's side, so both sides of a
        // boundary agree on per-group face counts (the exchange
        // protocol in SimKrak is symmetric and would otherwise
        // mismatch).
        const mesh::Material face_material =
            (pe < npe) ? deck.material_of(cell)
                       : deck.material_of(neighbor_cell);
        incidences.push_back(
            {pe, npe,
             static_cast<std::uint8_t>(mesh::exchange_group(face_material)),
             {n0, n1}});
        for (const mesh::NodeId node : {n0, n1}) {
          NodeSharers& shared = sharers[static_cast<std::size_t>(node)];
          if (shared.count == 0) boundary_nodes.push_back(node);
          shared.insert(pe);
          shared.insert(npe);
        }
      };
      if (i > 0) emit(cell - 1, sw, nw);             // west face
      if (i + 1 < nx) emit(cell + 1, se, ne);        // east face
      if (j > 0) emit(cell - nx, sw, se);            // south face
      if (j + 1 < ny) emit(cell + nx, nw, ne);       // north face
    }
  }

  // Ghost-node ownership: hash over the sorted sharer list.
  std::vector<PeId> node_owner(static_cast<std::size_t>(num_nodes), -1);
  for (const mesh::NodeId node : boundary_nodes) {
    NodeSharers& shared = sharers[static_cast<std::size_t>(node)];
    std::sort(shared.pes, shared.pes + shared.count);
    node_owner[static_cast<std::size_t>(node)] =
        shared.pes[hash_node(node) % shared.count];
  }

  // Group incidences into (pe, neighbor) boundaries; ascending neighbor
  // order per PE matches the ordered-map formulation exactly.
  std::sort(incidences.begin(), incidences.end(),
            [](const FaceIncidence& a, const FaceIncidence& b) {
              return a.pe != b.pe ? a.pe < b.pe : a.npe < b.npe;
            });
  // Size each neighbor list exactly: the lists stay resident for as
  // long as the statistics do (a whole replay), and push_back's growth
  // slack left them about 30% larger than their content.
  std::vector<std::uint32_t> neighbor_counts(static_cast<std::size_t>(parts),
                                             0);
  for (std::size_t k = 0; k < incidences.size(); ++k) {
    if (k == 0 || incidences[k].pe != incidences[k - 1].pe ||
        incidences[k].npe != incidences[k - 1].npe) {
      ++neighbor_counts[static_cast<std::size_t>(incidences[k].pe)];
    }
  }
  for (SubdomainInfo& sub : subdomains_) {
    sub.neighbors.reserve(neighbor_counts[static_cast<std::size_t>(sub.pe)]);
  }
  std::vector<std::pair<mesh::NodeId, std::uint8_t>> node_groups;
  for (std::size_t begin = 0; begin < incidences.size();) {
    const PeId pe = incidences[begin].pe;
    const PeId npe = incidences[begin].npe;
    std::size_t end = begin;
    NeighborBoundary boundary;
    boundary.neighbor = npe;
    node_groups.clear();
    while (end < incidences.size() && incidences[end].pe == pe &&
           incidences[end].npe == npe) {
      const FaceIncidence& face = incidences[end];
      ++boundary.total_faces;
      ++boundary.faces_per_group[face.group];
      const auto bit = static_cast<std::uint8_t>(1u << face.group);
      node_groups.emplace_back(face.nodes[0], bit);
      node_groups.emplace_back(face.nodes[1], bit);
      ++end;
    }
    std::sort(node_groups.begin(), node_groups.end());
    for (std::size_t k = 0; k < node_groups.size();) {
      const mesh::NodeId node = node_groups[k].first;
      std::uint8_t mask = 0;
      for (; k < node_groups.size() && node_groups[k].first == node; ++k) {
        mask |= node_groups[k].second;
      }
      // Popcount of a byte-size mask.
      const int groups = std::popcount(static_cast<unsigned>(mask));
      if (groups > 1) {
        ++boundary.multi_material_ghost_nodes;
        for (std::size_t g = 0; g < mesh::kExchangeGroupCount; ++g) {
          if ((mask >> g) & 1u) {
            ++boundary.multi_material_nodes_per_group[g];
          }
        }
      }
      if (node_owner[static_cast<std::size_t>(node)] == pe) {
        ++boundary.ghost_nodes_local;
      } else {
        ++boundary.ghost_nodes_remote;
      }
    }
    subdomains_[static_cast<std::size_t>(pe)].neighbors.push_back(boundary);
    begin = end;
  }
}

const SubdomainInfo& PartitionStats::subdomain(PeId pe) const {
  KRAK_REQUIRE(pe >= 0, "pe id must be non-negative");
  return util::span_at(subdomains_, static_cast<std::size_t>(pe));
}

std::int64_t PartitionStats::total_boundary_faces() const {
  std::int64_t total = 0;
  for (const SubdomainInfo& sub : subdomains_) {
    total += sub.total_boundary_faces();
  }
  return total;
}

std::int64_t PartitionStats::max_cells_per_pe() const {
  std::int64_t max_cells = 0;
  for (const SubdomainInfo& sub : subdomains_) {
    max_cells = std::max(max_cells, sub.total_cells);
  }
  return max_cells;
}

}  // namespace krak::partition
