// The paper reproduction as one document: every table, figure and
// ablation of EXPERIMENTS.md, computed on one calibrated environment and
// written to stdout as a single JSON document. obs::Json sorts keys and
// prints shortest round-trip numbers, so equal text means equal bits.
// Each gated check prints one line to stderr; the exit status is 1 if
// any check fails. The program takes no options (util::run_main refuses
// any).
//
// The ctest krak_repro.MatchesGolden compares the document byte for byte
// with bench/golden/paper_tables.json. After a deliberate change:
//   build/bench/krak_repro > bench/golden/paper_tables.json
//
// Every measured time set against a prediction comes from
// core::validate_* with the default ValidationConfig, directly or
// through core::run_validation_campaign. Table 1's and Table 4's traffic
// counts and the overlap, partitioner, hierarchy and cost-aware
// ablations build SimKrak by hand: each varies something
// ValidationConfig fixes (the cost engine, the network or the
// partitioner).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/comm_model.hpp"
#include "mesh/deck.hpp"
#include "network/collectives.hpp"
#include "obs/json.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"
#include "simapp/phases.hpp"
#include "simapp/simkrak.hpp"
#include "simapp/trace.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace krak;
using krakbench::Environment;
using obs::Json;

/// Records each gated check under its section's "checks" object and as
/// one stderr line.
struct Gate {
  bool all_pass = true;

  void operator()(Json& section, std::string_view key, const std::string& name,
                  bool pass) {
    section["checks"][name] = pass;
    std::cerr << key << '.' << name << ": " << (pass ? "pass" : "FAIL")
              << '\n';
    all_pass = all_pass && pass;
  }
};

/// Document keys of the four materials, in mesh::material_index order.
constexpr std::array<const char*, mesh::kMaterialCount> kMaterialKeys = {
    "he_gas", "al_inner", "foam", "al_outer"};

Json per_material(const std::array<double, mesh::kMaterialCount>& values) {
  Json out = Json::object();
  for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
    out[kMaterialKeys[m]] = values[m];
  }
  return out;
}

Json validation_row(const core::ValidationPoint& point) {
  Json row = Json::object();
  row["problem"] = point.problem;
  row["pes"] = point.pes;
  row["measured_s"] = point.measured;
  row["predicted_s"] = point.predicted;
  row["error"] = point.error();
  return row;
}

partition::Partition multilevel(const mesh::InputDeck& deck,
                                std::int32_t pes) {
  return partition::partition_deck(
      deck, pes, partition::PartitionMethod::kMultilevel, 1);
}

/// Table 1: the action and synchronization-point count of each phase,
/// cross-checked against the collectives of one traced iteration.
Json table1(const Environment& env, Gate& gate) {
  Json out = Json::object();
  std::int32_t total_syncs = 0;
  for (const simapp::PhaseSpec& phase : simapp::iteration_phases()) {
    Json row = Json::object();
    row["phase"] = phase.number;
    row["action"] = std::string(simapp::phase_action_name(phase.action));
    row["sync_points"] = phase.sync_points();
    out["phases"].push_back(std::move(row));
    total_syncs += phase.sync_points();
  }
  out["total_sync_points"] = total_syncs;

  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const sim::TrafficStats traffic =
      simapp::SimKrak(deck, multilevel(deck, 16), env.machine, env.engine, {})
          .run()
          .traffic;
  Json& traced = out["traced_small_16pe"];
  traced["allreduces"] = traffic.allreduces;
  traced["broadcasts"] = traffic.broadcasts;
  traced["gathers"] = traffic.gathers;
  gate(out, "table1", "traced_counts_match",
       traffic.allreduces == 22 && traffic.broadcasts == 6 &&
           traffic.gathers == 1);
  return out;
}

/// Table 2: material ratios of the generated decks against the paper's
/// heterogeneous row; the homogeneous row is 100% per material by
/// assumption.
Json table2() {
  Json out = Json::object();
  out["paper_heterogeneous"] = per_material(mesh::kPaperMaterialRatios);
  for (const mesh::DeckSize size :
       {mesh::DeckSize::kSmall, mesh::DeckSize::kMedium,
        mesh::DeckSize::kLarge}) {
    out["generated"][std::string(mesh::deck_size_name(size))] =
        per_material(mesh::make_standard_deck(size).material_ratios());
  }
  out["homogeneous"] = per_material({1.0, 1.0, 1.0, 1.0});
  return out;
}

/// The Figure 4 deck: two columns (one per processor) and ten rows of
/// stacked materials along the shared boundary.
mesh::InputDeck make_figure4_deck() {
  mesh::Grid grid(2, 10);
  std::vector<mesh::Material> materials(20);
  for (std::int32_t j = 0; j < 10; ++j) {
    mesh::Material m = mesh::Material::kAluminumOuter;
    if (j < 3) {
      m = mesh::Material::kHEGas;
    } else if (j < 5) {
      m = mesh::Material::kAluminumInner;
    } else if (j < 8) {
      m = mesh::Material::kFoam;
    }
    for (std::int32_t i = 0; i < 2; ++i) {
      materials[static_cast<std::size_t>(grid.cell_at(i, j))] = m;
    }
  }
  return mesh::InputDeck("figure4", grid, std::move(materials),
                         mesh::Point{0.0, 4.0});
}

/// Table 3: the boundary exchange of Figure 4 (3 HE-gas, 2 aluminum,
/// 3 foam and 2 aluminum faces); every message size must equal the
/// paper's.
Json table3(Gate& gate) {
  const mesh::InputDeck deck = make_figure4_deck();
  std::vector<partition::PeId> assignment(20);
  for (std::int32_t j = 0; j < 10; ++j) {
    assignment[static_cast<std::size_t>(j * 2)] = 0;
    assignment[static_cast<std::size_t>(j * 2 + 1)] = 1;
  }
  const partition::PartitionStats stats(
      deck, partition::Partition(2, std::move(assignment)));
  const partition::NeighborBoundary& boundary =
      stats.subdomain(0).neighbors.front();

  constexpr std::array<double, mesh::kExchangeGroupCount> kPaperAugmented = {
      48.0, 84.0, 60.0};
  constexpr std::array<double, mesh::kExchangeGroupCount> kPaperBase = {
      36.0, 48.0, 36.0};
  Json out = Json::object();
  bool all_match = true;
  for (std::size_t g = 0; g < mesh::kExchangeGroupCount; ++g) {
    const double faces = static_cast<double>(boundary.faces_per_group[g]);
    const double nodes =
        static_cast<double>(boundary.multi_material_nodes_per_group[g]);
    const double augmented = simapp::kBoundaryBytesPerFace * (faces + nodes);
    const double base = simapp::kBoundaryBytesPerFace * faces;
    Json row = Json::object();
    row["group"] = std::string(mesh::exchange_group_name(g));
    row["augmented_messages"] = simapp::kBoundaryAugmentedMessages;
    row["augmented_bytes"] = augmented;
    row["paper_augmented_bytes"] = kPaperAugmented[g];
    row["base_messages"] =
        simapp::kBoundaryMessagesPerStep - simapp::kBoundaryAugmentedMessages;
    row["base_bytes"] = base;
    row["paper_base_bytes"] = kPaperBase[g];
    out["groups"].push_back(std::move(row));
    all_match = all_match && augmented == kPaperAugmented[g] &&
                base == kPaperBase[g];
  }
  const double final_bytes =
      simapp::kBoundaryBytesPerFace * static_cast<double>(boundary.total_faces);
  out["all"]["messages"] = simapp::kBoundaryMessagesPerStep;
  out["all"]["bytes"] = final_bytes;
  out["all"]["paper_bytes"] = 120.0;
  out["multi_material_ghost_nodes"] = boundary.multi_material_ghost_nodes;
  gate(out, "table3", "message_sizes_match", all_match && final_bytes == 120.0);
  return out;
}

/// Table 4: collective operations per iteration, the same on two very
/// different configurations, plus the Equation (8)-(10) model costs.
Json table4(const Environment& env, Gate& gate) {
  const simapp::DerivedCollectiveCounts derived =
      simapp::derive_collective_counts();
  const std::array<std::tuple<const char*, double, std::int32_t, std::int32_t>,
                   5>
      operations = {{{"MPI_Bcast", 4.0, derived.bcast_4b, 3},
                     {"MPI_Bcast", 8.0, derived.bcast_8b, 3},
                     {"MPI_Allreduce", 4.0, derived.allreduce_4b, 9},
                     {"MPI_Allreduce", 8.0, derived.allreduce_8b, 13},
                     {"MPI_Gather", 32.0, derived.gather_32b, 1}}};
  Json out = Json::object();
  for (const auto& [type, bytes, count, paper_count] : operations) {
    Json row = Json::object();
    row["type"] = type;
    row["bytes"] = bytes;
    row["count"] = count;
    row["paper_count"] = paper_count;
    out["operations"].push_back(std::move(row));
  }

  bool invariant = true;
  for (const auto& [size, pes] :
       std::vector<std::pair<mesh::DeckSize, std::int32_t>>{
           {mesh::DeckSize::kSmall, 8}, {mesh::DeckSize::kMedium, 64}}) {
    const mesh::InputDeck deck = mesh::make_standard_deck(size);
    const sim::TrafficStats traffic =
        simapp::SimKrak(deck, multilevel(deck, pes), env.machine, env.engine,
                        {})
            .run()
            .traffic;
    Json row = Json::object();
    row["deck"] = std::string(mesh::deck_size_name(size));
    row["pes"] = pes;
    row["broadcasts"] = traffic.broadcasts;
    row["allreduces"] = traffic.allreduces;
    row["gathers"] = traffic.gathers;
    out["traced"].push_back(std::move(row));
    invariant = invariant && traffic.broadcasts == 6 &&
                traffic.allreduces == 22 && traffic.gathers == 1;
  }

  const network::CollectiveModel model(env.machine.network);
  for (const std::int32_t pes : {16, 64, 128, 256, 512, 1024}) {
    Json row = Json::object();
    row["pes"] = pes;
    row["broadcast_s"] = model.iteration_broadcast(pes);
    row["allreduce_s"] = model.iteration_allreduce(pes);
    row["gather_s"] = model.iteration_gather(pes);
    out["model_costs"].push_back(std::move(row));
  }
  gate(out, "table4", "counts_invariant", invariant);
  return out;
}

/// A validation table: each run with the paper's error for it, and the
/// campaign's error aggregates.
Json validation_table(const core::CampaignSummary& summary,
                      const std::array<double, 6>& paper_errors) {
  Json out = Json::object();
  for (std::size_t i = 0; i < summary.points.size(); ++i) {
    Json row = validation_row(summary.points[i]);
    row["paper_error"] = paper_errors[i];
    out["runs"].push_back(std::move(row));
  }
  out["worst_abs_error"] = summary.worst_abs_error;
  out["mean_abs_error"] = summary.mean_abs_error;
  return out;
}

/// Table 5: the mesh-specific model on the small and medium decks at
/// 16/64/128 PEs. Large errors near the knee of the per-cell cost curve
/// (small deck), under 10% for the medium deck.
Json table5(const Environment& env, Gate& gate) {
  const core::CampaignSummary summary = core::run_validation_campaign(
      env.model, env.engine, core::table5_runs());
  // Paper errors in table5_runs() order: small, then medium, at 16/64/128.
  Json out = validation_table(summary,
                              {-0.590, 0.527, -0.100, 0.059, -0.008, 0.045});
  double worst_small = 0.0;
  double worst_medium = 0.0;
  for (const core::ValidationPoint& point : summary.points) {
    // The small deck is 80x40 cells; problem names carry dimensions.
    double& worst = point.problem.find("80x40") != std::string::npos
                        ? worst_small
                        : worst_medium;
    worst = std::max(worst, std::abs(point.error()));
  }
  out["small_worst_abs_error"] = worst_small;
  out["medium_worst_abs_error"] = worst_medium;
  gate(out, "table5", "small_worst_error_above_15pct", worst_small > 0.15);
  gate(out, "table5", "medium_worst_error_below_10pct", worst_medium < 0.10);
  return out;
}

/// Table 6: the general model (homogeneous) on the medium and large
/// decks at 128/256/512 PEs. Single-digit errors, best at 512 PEs.
Json table6(const Environment& env, Gate& gate) {
  const core::CampaignSummary summary = core::run_validation_campaign(
      env.model, env.engine, core::table6_runs());
  // Paper errors in table6_runs() order: medium, then large, at
  // 128/256/512.
  Json out = validation_table(summary,
                              {-0.080, -0.040, 0.029, -0.043, -0.046, -0.010});
  double at512 = 0.0;
  for (const core::ValidationPoint& point : summary.points) {
    if (point.pes == 512) at512 = std::max(at512, std::abs(point.error()));
  }
  out["worst_abs_error_at_512pe"] = at512;
  gate(out, "table6", "worst_error_below_12pct",
       summary.worst_abs_error < 0.12);
  gate(out, "table6", "worst_error_at_512pe_below_8pct", at512 < 0.08);
  return out;
}

/// Figure 1: quality of the multilevel partition of the small deck over
/// 16 processors, and how many subgrids mix materials.
Json figure1() {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = multilevel(deck, 16);
  const partition::PartitionQuality quality = partition::evaluate_partition(
      partition::build_dual_graph(deck.grid()), part);
  const partition::PartitionStats stats(deck, part);
  std::int32_t mixed_subgrids = 0;
  for (const partition::SubdomainInfo& sub : stats.subdomains()) {
    const auto materials =
        std::count_if(sub.cells_per_material.begin(),
                      sub.cells_per_material.end(),
                      [](std::int64_t n) { return n > 0; });
    if (materials > 1) ++mixed_subgrids;
  }
  Json out = Json::object();
  out["cells"] = deck.grid().num_cells();
  out["processors"] = 16;
  out["min_cells_per_pe"] = quality.min_cells;
  out["max_cells_per_pe"] = quality.max_cells;
  out["imbalance"] = quality.imbalance;
  out["edge_cut"] = quality.edge_cut;
  out["mean_neighbors"] = quality.mean_neighbors;
  out["max_neighbors"] = quality.max_neighbors;
  out["mixed_material_subgrids"] = mixed_subgrids;
  return out;
}

/// Figure 2: per-phase computation time of a homogeneous subgrid per
/// material on 256 processors of the 65,536-cell deck.
Json figure2(const Environment& env) {
  const mesh::InputDeck deck = mesh::make_figure2_deck();
  const std::int64_t cells_per_pe = deck.grid().num_cells() / 256;
  Json out = Json::object();
  out["cells"] = deck.grid().num_cells();
  out["processors"] = 256;
  out["cells_per_pe"] = cells_per_pe;
  for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
    std::array<double, mesh::kMaterialCount> times{};
    for (const mesh::Material m : mesh::all_materials()) {
      times[mesh::material_index(m)] =
          env.engine.uniform_subgrid_time(phase, m, cells_per_pe);
    }
    Json row = Json::object();
    row["phase"] = phase;
    row["times_s"] = per_material(times);
    row["material_dependent"] = env.engine.phase_law(phase).material_dependent;
    out["phases"].push_back(std::move(row));
  }
  return out;
}

/// Figure 3: per-cell cost against cells per processor for phases 1, 2
/// and 7, ground truth against the calibrated model, one sample per
/// decade.
Json figure3(const Environment& env) {
  Json out = Json::object();
  for (const std::int32_t phase : {1, 2, 7}) {
    Json curve = Json::object();
    curve["phase"] = phase;
    for (double cells = 1.0; cells <= 1e6; cells *= 10.0) {
      const auto n = static_cast<std::int64_t>(cells);
      Json row = Json::object();
      row["cells"] = cells;
      row["he_gas_truth_s"] =
          env.engine.per_cell_cost(phase, mesh::Material::kHEGas, n);
      row["he_gas_model_s"] = env.model.cost_table().per_cell(
          phase, mesh::Material::kHEGas, cells);
      row["foam_truth_s"] =
          env.engine.per_cell_cost(phase, mesh::Material::kFoam, n);
      row["foam_model_s"] =
          env.model.cost_table().per_cell(phase, mesh::Material::kFoam, cells);
      curve["samples"].push_back(std::move(row));
    }
    out["phases"].push_back(std::move(curve));
  }
  return out;
}

/// The measured value of `problem` at `pes` in a table's run list.
double measured_at(const Json& table, std::string_view problem,
                   std::int32_t pes) {
  for (const Json& run : table.find("runs")->as_array()) {
    if (run.find("problem")->as_string() == problem &&
        run.find("pes")->as_double() == pes) {
      return run.find("measured_s")->as_double();
    }
  }
  return 0.0;
}

/// Figure 5: the strong-scaling sweep P = 1..1024 of the medium and
/// large decks, measured against the homogeneous (validated) and
/// heterogeneous general model. Heterogeneous fits at small P and
/// over-predicts at scale; homogeneous converges at scale. The medium
/// deck's 128-PE point is the same measurement as Tables 5 and 6's.
Json figure5(const Environment& env, const Json& table5, const Json& table6,
             Gate& gate) {
  const std::vector<std::int32_t> pe_counts = {1,  2,   4,   8,   16,  32,
                                               64, 128, 256, 512, 1024};
  Json out = Json::object();
  for (const mesh::DeckSize size :
       {mesh::DeckSize::kMedium, mesh::DeckSize::kLarge}) {
    const std::string name(mesh::deck_size_name(size));
    std::vector<core::CampaignRun> runs;
    for (const std::int32_t pes : pe_counts) {
      runs.emplace_back(size, pes,
                        core::CampaignRun::Flavor::kGeneralHomogeneous);
    }
    const core::CampaignSummary summary =
        core::run_validation_campaign(env.model, env.engine, runs);
    const std::int64_t cells =
        mesh::make_standard_deck(size).grid().num_cells();
    Json& deck_out = out[name];
    deck_out["cells"] = cells;
    for (const core::ValidationPoint& point : summary.points) {
      const double measured = point.measured;
      const double homo = point.predicted;
      const double het =
          env.model
              .predict_general(cells, point.pes,
                               core::GeneralModelMode::kHeterogeneous)
              .total();
      Json row = Json::object();
      row["pes"] = point.pes;
      row["measured_s"] = measured;
      row["homogeneous_s"] = homo;
      row["heterogeneous_s"] = het;
      row["homogeneous_error"] = (measured - homo) / measured;
      row["heterogeneous_error"] = (measured - het) / measured;
      deck_out["points"].push_back(std::move(row));
      if (point.pes == 1) {
        // Left edge of Figure 5: heterogeneous is the better fit.
        gate(out, "figure5", name + "_heterogeneous_closer_at_1pe",
             std::abs(het - measured) < std::abs(homo - measured));
      }
      if (size == mesh::DeckSize::kMedium && point.pes == 128) {
        gate(out, "figure5", "medium_128pe_equals_tables_5_and_6",
             measured == measured_at(table5, point.problem, 128) &&
                 measured == measured_at(table6, point.problem, 128));
      }
      if (point.pes == 512) {
        // Table 6 regime: homogeneous within a few percent.
        gate(out, "figure5", name + "_homogeneous_within_10pct_at_512pe",
             std::abs(homo - measured) / measured < 0.10);
      }
      if (point.pes == pe_counts.back()) {
        // Right edge: heterogeneous over-predicts once the per-material
        // subgrid shares shrink into the knee.
        gate(out, "figure5",
             name + "_heterogeneous_overpredicts_5pct_at_1024pe",
             het > measured * 1.05);
      }
    }
  }
  return out;
}

/// An engine whose computation is ~free and noiseless, isolating
/// communication (full iterations are computation-dominated).
simapp::ComputationCostEngine comm_only_engine() {
  simapp::ComputationCostEngine engine;
  engine.set_compute_speedup(1e9);
  engine.set_noise_sigma(0.0);
  return engine;
}

/// Point-to-point communication alone (compute scaled to ~0): the
/// simulated overlapped exchange against the serialized Eqs. (5)-(7).
Json ablation_overlap(const Environment& env) {
  const simapp::ComputationCostEngine comm_only = comm_only_engine();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const network::CollectiveModel collectives(env.machine.network);
  Json out = Json::object();
  for (const std::int32_t pes : {16, 64, 128, 256, 512}) {
    const partition::Partition part = multilevel(deck, pes);
    const partition::PartitionStats stats(deck, part);
    const double simulated =
        simapp::SimKrak(deck, part, env.machine, comm_only, {})
            .run()
            .time_per_iteration;
    const core::PointToPointBreakdown p2p =
        core::max_point_to_point(env.machine.network, stats);
    const double model_comm =
        p2p.total() + collectives.iteration_collectives(pes);
    Json row = Json::object();
    row["pes"] = pes;
    row["simulated_comm_s"] = simulated;
    row["model_comm_s"] = model_comm;
    row["model_p2p_s"] = p2p.total();
    row["over_prediction"] = model_comm / simulated;
    out["rows"].push_back(std::move(row));
  }
  return out;
}

/// Strip, RCB, multilevel and material-aware partitions of the medium
/// deck: quality, measured and predicted iteration time.
Json ablation_partitioner(const Environment& env) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const partition::Graph graph = partition::build_dual_graph(deck.grid());
  Json out = Json::object();
  for (const std::int32_t pes : {64, 256}) {
    Json scale = Json::object();
    scale["pes"] = pes;
    for (const partition::PartitionMethod method :
         {partition::PartitionMethod::kStrip, partition::PartitionMethod::kRcb,
          partition::PartitionMethod::kMultilevel,
          partition::PartitionMethod::kMaterialAware}) {
      const partition::Partition part =
          partition::partition_deck(deck, pes, method, 1);
      const partition::PartitionQuality quality =
          partition::evaluate_partition(graph, part);
      Json row = Json::object();
      row["method"] = std::string(partition::partition_method_name(method));
      row["edge_cut"] = quality.edge_cut;
      row["imbalance"] = quality.imbalance;
      row["max_neighbors"] = quality.max_neighbors;
      row["measured_s"] =
          simapp::SimKrak(deck, part, env.machine, env.engine, {})
              .run()
              .time_per_iteration;
      row["predicted_s"] = env.model.predict_mesh_specific(deck, part).total();
      scale["methods"].push_back(std::move(row));
    }
    out["scales"].push_back(std::move(scale));
  }
  return out;
}

/// Table 5's small-deck errors under cost tables calibrated at
/// increasingly dense subgrid-size ladders.
Json ablation_knee(const Environment& env) {
  const mesh::InputDeck medium = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  const mesh::InputDeck small = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  // Medium-deck calibration runs; cells/PE = 204800 / P.
  const std::vector<std::pair<const char*, std::vector<std::int32_t>>>
      ladders = {{"coarse", {64, 4096}},
                 {"default", {8, 64, 512, 4096}},
                 {"dense", {8, 32, 64, 128, 512, 1024, 2048, 4096}}};
  Json out = Json::object();
  std::vector<double> worst_by_ladder;
  for (const auto& [name, pe_counts] : ladders) {
    const core::KrakModel model(
        core::calibrate_from_input(env.engine, medium, pe_counts),
        env.machine);
    Json ladder = Json::object();
    ladder["name"] = name;
    for (const std::int32_t pes : pe_counts) {
      ladder["calibration_pes"].push_back(pes);
    }
    double worst = 0.0;
    for (const std::int32_t pes : {16, 64, 128}) {
      const core::ValidationPoint point =
          core::validate_mesh_specific(small, pes, model, env.engine);
      Json row = Json::object();
      row["pes"] = pes;
      row["error"] = point.error();
      ladder["errors"].push_back(std::move(row));
      worst = std::max(worst, std::abs(point.error()));
    }
    ladder["worst_abs_error"] = worst;
    out["ladders"].push_back(std::move(ladder));
    worst_by_ladder.push_back(worst);
  }
  out["denser_sampling_improves"] =
      worst_by_ladder.back() < worst_by_ladder.front();
  return out;
}

/// Flat Tmsg against a two-level (intra/inter-node) network, for full
/// iterations and for communication alone.
Json ablation_hierarchy(const Environment& env) {
  const simapp::ComputationCostEngine comm_only = comm_only_engine();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  Json out = Json::object();
  for (const std::int32_t pes : {16, 64, 128, 256, 512}) {
    const partition::Partition part = multilevel(deck, pes);
    const auto run = [&](const simapp::ComputationCostEngine& engine,
                         bool hierarchical) {
      simapp::SimKrakOptions options;
      options.hierarchical_network = hierarchical;
      return simapp::SimKrak(deck, part, env.machine, engine, options)
          .run()
          .time_per_iteration;
    };
    const double flat = run(env.engine, false);
    const double hier = run(env.engine, true);
    const double comm_flat = run(comm_only, false);
    const double comm_hier = run(comm_only, true);
    Json row = Json::object();
    row["pes"] = pes;
    row["full_flat_s"] = flat;
    row["full_hierarchical_s"] = hier;
    row["comm_only_flat_s"] = comm_flat;
    row["comm_only_hierarchical_s"] = comm_hier;
    row["comm_difference"] = (comm_flat - comm_hier) / comm_flat;
    out["rows"].push_back(std::move(row));
  }
  return out;
}

/// Cell-balanced, cost-aware (scalar calibrated weights) and
/// material-aware partitions of the medium deck. Only the
/// material-aware partition balances every phase at once, and it must
/// win by more than 5%.
Json ablation_costaware(const Environment& env, Gate& gate) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  // Per-material weights from the calibrated model: summed per-cell
  // cost over all 15 phases at the working subgrid scale.
  const double scale_cells = 1600.0;
  std::array<double, mesh::kMaterialCount> weights{};
  for (std::size_t m = 0; m < mesh::kMaterialCount; ++m) {
    for (std::int32_t phase = 1; phase <= simapp::kPhaseCount; ++phase) {
      weights[m] += env.model.cost_table().per_cell(
          phase, mesh::material_from_index(m), scale_cells);
    }
  }
  Json out = Json::object();
  for (const std::int32_t pes : {64, 128}) {
    const std::array<std::pair<const char*, partition::Partition>, 3> variants =
        {{{"cell-balanced", multilevel(deck, pes)},
          {"cost-aware",
           partition::partition_cost_aware(deck, pes, weights, 1)},
          {"material-aware",
           partition::partition_deck(
               deck, pes, partition::PartitionMethod::kMaterialAware, 1)}}};
    Json scale = Json::object();
    scale["pes"] = pes;
    std::array<double, 3> measured{};
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& [name, part] = variants[v];
      const partition::PartitionStats stats(deck, part);
      measured[v] = simapp::SimKrak(deck, part, env.machine, env.engine, {})
                        .run()
                        .time_per_iteration;
      Json row = Json::object();
      row["partitioner"] = name;
      row["measured_s"] = measured[v];
      // Sum over phases of the max-over-PEs model time (Equation 3).
      row["synced_computation_s"] =
          env.model.predict_mesh_specific(stats).computation;
      row["max_cells_per_pe"] = stats.max_cells_per_pe();
      scale["partitioners"].push_back(std::move(row));
    }
    const double gain = (measured[0] - measured[2]) / measured[0];
    scale["material_aware_gain"] = gain;
    out["scales"].push_back(std::move(scale));
    gate(out, "ablation_costaware",
         "material_aware_gain_above_5pct_at_" + std::to_string(pes) + "pe",
         gain > 0.05);
  }
  return out;
}

/// Point-to-point message sizes across the strong-scaling sweep of the
/// medium deck (Section 5.2's latency-dominance argument).
Json msg_distribution(const Environment& env) {
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kMedium);
  Json out = Json::object();
  for (const std::int32_t pes : {16, 64, 128, 256, 512, 1024}) {
    const simapp::MessageInventory inventory =
        simapp::compute_message_inventory(simapp::SimKrak(
            deck, multilevel(deck, pes), env.machine, env.engine, {}));
    const double mean_bytes = inventory.mean_message_bytes();
    Json row = Json::object();
    row["pes"] = pes;
    row["messages"] = inventory.total_messages();
    row["total_bytes"] = inventory.total_bytes();
    row["mean_bytes"] = mean_bytes;
    row["at_most_120_bytes_fraction"] = inventory.fraction_at_most(120.0);
    row["latency_share"] = env.machine.network.latency(mean_bytes) /
                           env.machine.network.message_time(mean_bytes);
    out["rows"].push_back(std::move(row));
  }
  return out;
}

/// Weak scaling on cylindrical decks of about `cells_per_pe` x P cells
/// (a 2:1 rectangle): time grows far slower than the problem, and the
/// general model tracks it at scale.
Json weak_scaling(const Environment& env, Gate& gate) {
  const std::vector<std::int32_t> pe_counts = {1, 4, 16, 64, 256, 1024};
  Json out = Json::object();
  for (const std::int64_t cells_per_pe : {400, 1600}) {
    std::vector<mesh::InputDeck> decks;
    for (const std::int32_t pes : pe_counts) {
      const double target = static_cast<double>(cells_per_pe) * pes;
      const auto ny = static_cast<std::int32_t>(
          std::max(4.0, std::round(std::sqrt(target / 2.0))));
      const auto nx = static_cast<std::int32_t>(
          std::max(8.0, std::round(target / ny)));
      decks.push_back(mesh::make_cylindrical_deck(nx, ny));
    }
    std::vector<core::ValidationPoint> points(pe_counts.size());
    util::ThreadPool pool;
    pool.parallel_for(pe_counts.size(), [&](std::size_t i) {
      points[i] = core::validate_general(decks[i], pe_counts[i], env.model,
                                         core::GeneralModelMode::kHomogeneous,
                                         env.engine);
    });

    const std::string label = std::to_string(cells_per_pe) + "_cells_per_pe";
    Json series = Json::object();
    series["cells_per_pe"] = cells_per_pe;
    bool errors_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      Json row = validation_row(points[i]);
      row["cells"] = decks[i].grid().num_cells();
      series["points"].push_back(std::move(row));
      if (points[i].pes >= 64) {
        errors_ok = errors_ok && std::abs(points[i].error()) < 0.15;
      }
    }
    const double growth = points.back().measured / points.front().measured;
    series["growth"] = growth;
    out["series"].push_back(std::move(series));
    gate(out, "weak_scaling", label + "_error_below_15pct_from_64pe",
         errors_ok);
    gate(out, "weak_scaling", label + "_growth_below_3x", growth < 3.0);
  }
  return out;
}

int run(const util::ArgParser& /*args*/) {
  const Environment& env = krakbench::environment();
  Gate gate;
  Json doc = Json::object();
  doc["table1"] = table1(env, gate);
  doc["table2"] = table2();
  doc["table3"] = table3(gate);
  doc["table4"] = table4(env, gate);
  doc["table5"] = table5(env, gate);
  doc["table6"] = table6(env, gate);
  doc["figure1"] = figure1();
  doc["figure2"] = figure2(env);
  doc["figure3"] = figure3(env);
  doc["figure5"] = figure5(env, doc["table5"], doc["table6"], gate);
  doc["ablation_overlap"] = ablation_overlap(env);
  doc["ablation_partitioner"] = ablation_partitioner(env);
  doc["ablation_knee"] = ablation_knee(env);
  doc["ablation_hierarchy"] = ablation_hierarchy(env);
  doc["ablation_costaware"] = ablation_costaware(env, gate);
  doc["msg_distribution"] = msg_distribution(env);
  doc["weak_scaling"] = weak_scaling(env, gate);

  std::cout << doc.dump() << '\n';
  return gate.all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, {}, run);
}
