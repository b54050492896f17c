// krak_bench: the JSON bench harness (docs/OBSERVABILITY.md).
//
// Runs the Table 5 / Table 6 validation campaigns plus a simulator
// replay and emits a schema-stable krak-bench-v2 document
// (BENCH_*.json) carrying per-run wall times, thread-pool utilization,
// the replay's compute / point-to-point / collective decomposition,
// and a snapshot of the global metric registry — everything a later PR
// needs to compare performance against this one.
//
// `krak_bench --help` lists the options, and docs/OBSERVABILITY.md
// says what each does. --out FILE is required to generate a report, so
// a bare run cannot overwrite a checked-in one; --validate FILE
// schema-checks an existing report instead.
//
// --quick calibrates on the small deck only and shrinks the campaigns;
// it exists for CI smoke coverage, not for cross-PR comparison. Every
// generated report is self-validated before it is written, so a
// schema/emitter mismatch fails the run instead of producing an
// artifact that only breaks downstream.
//
// Campaign scenarios that fail (fault-injected hang, bad
// configuration) do not abort the run: the remaining scenarios are
// still measured, the report is still written — with a schema-valid
// "failures" section naming each failed scenario and its cause — and
// the exit status is non-zero so CI notices.

#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bench_report.hpp"
#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/partition_cache.hpp"
#include "fault/plan.hpp"
#include "mesh/synthetic.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace krak;

/// A count option in [1, 2^32 - 1]: CampaignPolicy's attempt budgets.
std::uint32_t count_option(const util::ArgParser& args,
                           const std::string& name, std::int64_t fallback) {
  const std::int64_t value = args.get_int(name, fallback);
  if (value < 1 || value > std::numeric_limits<std::uint32_t>::max()) {
    throw util::InvalidArgument("option --" + name +
                                " expects an integer in [1, 4294967295], got " +
                                std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

/// A seconds option, 0 when absent: finite (get_double refuses nan and
/// inf) and non-negative.
double seconds_option(const util::ArgParser& args, const std::string& name) {
  const double value = args.get_double(name, 0.0);
  if (value < 0.0) {
    throw util::InvalidArgument("option --" + name +
                                " expects a non-negative number of seconds, "
                                "got " + args.get_string(name, ""));
  }
  return value;
}

int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "krak_bench: cannot open '" << path << "'\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::Json report;
  try {
    report = obs::Json::parse(buffer.str());
  } catch (const util::KrakError& error) {
    std::cerr << "krak_bench: " << path << ": " << error.what() << "\n";
    return 1;
  }
  const std::vector<std::string> violations =
      obs::validate_bench_report(report);
  for (const std::string& violation : violations) {
    std::cerr << path << ": " << violation << "\n";
  }
  if (!violations.empty()) {
    std::cerr << path << ": " << violations.size()
              << " schema violation(s)\n";
    return 1;
  }
  std::cout << path << ": valid " << obs::kBenchSchemaId << " report\n";
  return 0;
}

simapp::SimKrakResult run_replay(const mesh::InputDeck& deck, std::int32_t pes,
                                 const network::MachineConfig& machine,
                                 const simapp::ComputationCostEngine& engine,
                                 std::int32_t iterations) {
  // Seed 1 matches ValidationConfig::partition_seed, so the replay
  // reuses the campaign's cached partition when both run in-process.
  const auto partitioned = core::PartitionCache::global().get(
      deck, pes, partition::PartitionMethod::kMultilevel, /*seed=*/1);
  simapp::SimKrakOptions options;
  options.iterations = iterations;
  const simapp::SimKrak app(deck, partitioned->partition, machine, engine,
                            partitioned->stats, options);
  return app.run();
}

/// The perf-smoke regression gate: load + validate the baseline report,
/// then run both halves of the comparison — campaign wall_seconds
/// (core::compare_campaign_walls) and parallel-replay parallel_wall_s
/// (core::compare_replay_walls). Each half fails both on wall-time
/// regressions beyond `factor` and on names unmatched in either
/// direction. Returns the number of failures.
int run_compare_gate(const obs::Json& report, const std::string& path,
                     double factor) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "krak_bench: cannot open baseline '" << path << "'\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::Json baseline;
  try {
    baseline = obs::Json::parse(buffer.str());
  } catch (const util::KrakError& error) {
    std::cerr << "krak_bench: " << path << ": " << error.what() << "\n";
    return 1;
  }
  const std::vector<std::string> violations =
      obs::validate_bench_report(baseline);
  if (!violations.empty()) {
    std::cerr << "krak_bench: baseline " << path << " has "
              << violations.size() << " schema violation(s)\n";
    return 1;
  }

  std::vector<std::string> failures =
      core::compare_campaign_walls(report, baseline, factor);
  const std::vector<std::string> replay_failures =
      core::compare_replay_walls(report, baseline, factor);
  failures.insert(failures.end(), replay_failures.begin(),
                  replay_failures.end());
  for (const std::string& failure : failures) {
    std::cerr << "krak_bench: " << failure << "\n";
  }
  if (failures.empty()) {
    std::cout << "compare: every campaign and parallel replay matched '"
              << path << "' and stayed within " << factor << "x\n";
  }
  // Surface the Amdahl datapoints of every parallel replay next to the
  // gate verdict: the speedup against the oracle and how much of the
  // parallel wall was serial coordinator work (the multi-core ceiling).
  if (const obs::Json* replays = report.find("replays")) {
    for (const obs::Json& replay : replays->as_array()) {
      const obs::Json* parallel = replay.find("parallel");
      if (parallel == nullptr) continue;
      const obs::Json* fraction =
          parallel->find("coordinator_serial_fraction");
      if (fraction == nullptr) continue;
      std::cout << "compare: replay " << replay.find("name")->as_string()
                << ": speedup_vs_oracle "
                << parallel->find("speedup_vs_oracle")->as_double()
                << ", coordinator_serial_fraction " << fraction->as_double()
                << "\n";
    }
  }
  return static_cast<int>(failures.size());
}

/// The parallel-simulation scaling scenario: one SimKrak run measured
/// twice — single-thread oracle, then the conservative parallel engine
/// at `threads` workers — with the results required to be bit-identical
/// before the walls are recorded. The full-mode scenarios spread the
/// medium deck over a scaled-up 2560-node machine (10,240 ranks) and a
/// synthetic deck over 102,400 ranks — the 10k-100k-rank regime the
/// parallel engine exists for (docs/PERFORMANCE.md, "The 100k-rank
/// regime"); quick mode shrinks to 128 standard and ~20k synthetic
/// ranks for CI smoke coverage. `method` picks the partitioner: the
/// standard-deck scenarios keep multilevel for baseline continuity, the
/// huge synthetic ones use RCB, whose cost stays negligible at 100k+
/// parts. `full_stack` turns on the hierarchical network and shared-NIC
/// contention, proving in the artifact that NIC-configured scenarios
/// run sharded — no oracle fallback.
obs::Json run_parallel_scaling(const mesh::InputDeck& deck,
                               std::int32_t ranks, std::string name,
                               const network::MachineConfig& base_machine,
                               const simapp::ComputationCostEngine& engine,
                               std::int32_t threads,
                               partition::PartitionMethod method =
                                   partition::PartitionMethod::kMultilevel,
                               bool full_stack = false,
                               std::int32_t iterations = 1) {
  network::MachineConfig machine = base_machine;
  if (machine.total_pes() < ranks) {
    machine.nodes = (ranks + machine.pes_per_node - 1) / machine.pes_per_node;
  }
  const auto partitioned = core::PartitionCache::global().get(
      deck, ranks, method, /*seed=*/1);

  simapp::SimKrakOptions options;
  options.iterations = iterations;
  options.hierarchical_network = full_stack;
  options.nic_contention = full_stack;

  // Each engine is timed twice and the better wall recorded: host
  // interference only ever inflates a wall, and determinism makes the
  // rerun literally identical work, so min-of-2 is the closest cheap
  // estimator of the engine's actual cost on a shared machine. The
  // best attempt's result is the one kept, so its host-timing fields
  // (coordinator_seconds) describe the same run as the recorded wall.
  const auto timed_run = [](const simapp::SimKrak& app, double* wall) {
    std::optional<simapp::SimKrakResult> result;
    *wall = std::numeric_limits<double>::infinity();
    for (int attempt = 0; attempt < 2; ++attempt) {
      const util::Stopwatch watch;
      simapp::SimKrakResult attempt_result = app.run();
      const double seconds = watch.seconds();
      if (seconds < *wall) {
        *wall = seconds;
        result = std::move(attempt_result);
      }
    }
    return std::move(*result);
  };

  const simapp::SimKrak serial_app(deck, partitioned->partition, machine,
                                   engine, partitioned->stats, options);
  double serial_wall = 0.0;
  const simapp::SimKrakResult serial = timed_run(serial_app, &serial_wall);

  options.sim_threads = threads;
  const simapp::SimKrak parallel_app(deck, partitioned->partition, machine,
                                     engine, partitioned->stats, options);
  double parallel_wall = 0.0;
  const simapp::SimKrakResult parallel =
      timed_run(parallel_app, &parallel_wall);

  // The scaling datapoint is only meaningful if the engines agree; a
  // mismatch is a determinism bug, not a slow run. Makespan, per-rank
  // breakdowns, traffic, and fault stats must all replay bit-exactly.
  bool identical =
      serial.total_time == parallel.total_time &&
      serial.totals.compute == parallel.totals.compute &&
      serial.traffic.point_to_point_messages ==
          parallel.traffic.point_to_point_messages &&
      serial.traffic.point_to_point_bytes ==
          parallel.traffic.point_to_point_bytes &&
      serial.fault_stats.injections == parallel.fault_stats.injections &&
      serial.fault_stats.fault_delay_seconds ==
          parallel.fault_stats.fault_delay_seconds &&
      serial.failures.size() == parallel.failures.size() &&
      serial.rank_breakdown.size() == parallel.rank_breakdown.size();
  for (std::size_t r = 0; identical && r < serial.rank_breakdown.size(); ++r) {
    identical = serial.rank_breakdown[r].total_seconds() ==
                parallel.rank_breakdown[r].total_seconds();
  }
  util::check(identical,
              "parallel simulation diverged from the single-thread oracle");

  obs::Json replay = core::replay_to_json(std::move(name), parallel);
  core::attach_parallel_scaling(replay, threads, serial_wall, parallel_wall,
                                parallel.coordinator_seconds);
  std::cout << "parallel scaling (" << ranks << " ranks, " << threads
            << " threads): serial " << serial_wall << " s, parallel "
            << parallel_wall << " s, coordinator "
            << parallel.coordinator_seconds << " s\n";
  return replay;
}

/// Every campaign and replay of the report. `policy` is the resilience
/// policy shared by every campaign (docs/RESILIENCE.md); the journal
/// label is set per campaign so one journal file serves both tables
/// without aliasing scenarios that share a configuration.
obs::Json build_report(const util::ArgParser& args,
                       core::CampaignPolicy policy, std::size_t threads) {
  std::vector<obs::Json> campaigns;
  std::vector<obs::Json> replays;
  const bool quick = args.has("quick");

  const std::string journal_path = args.get_string("journal", "");
  std::unique_ptr<core::CampaignJournal> journal;
  if (!journal_path.empty()) {
    journal = std::make_unique<core::CampaignJournal>(journal_path);
    const core::CampaignJournal::Recovery& recovery = journal->recovery();
    if (!args.has("resume") && recovery.records > 0) {
      throw util::KrakError(
          "journal '" + journal_path + "' already holds " +
          std::to_string(recovery.records) +
          " record(s); pass --resume to replay it, or point --journal at a"
          " fresh path");
    }
    if (args.has("resume")) {
      std::cout << "journal: recovered " << recovery.records
                << " record(s), " << recovery.completed
                << " scenario(s) done, " << recovery.quarantined
                << " quarantined";
      if (recovery.torn_tail) {
        std::cout << "; torn tail truncated (" << recovery.dropped_bytes
                  << " bytes)";
      }
      std::cout << "\n";
    }
    policy.journal = journal.get();
  }
  const auto policy_for = [&policy](std::string label) {
    core::CampaignPolicy labeled = policy;
    labeled.label = std::move(label);
    return labeled;
  };

  core::ValidationConfig config;
  const std::string faults = args.get_string("faults", "");
  if (!faults.empty()) config.faults = fault::load_fault_plan(faults);
  // --threads widens only the campaign pool, so campaign values never
  // depend on it. Campaign simulations stay on the single-thread oracle
  // (ValidationConfig::sim_threads keeps its default): Table 5/6
  // scenarios top out at 512 ranks, where epoch synchronization costs
  // more than the smaller per-shard heaps buy back — the sharded engine
  // is for the >= 10k-rank scaling replays, whose shard counts are
  // pinned per scenario so the BENCH artifacts stay comparable across
  // machines and across PRs.

  if (quick) {
    // Small-deck-only model: calibration at {8, 32, 128} takes a couple
    // of seconds instead of the medium deck's minutes.
    const mesh::InputDeck small =
        mesh::make_standard_deck(mesh::DeckSize::kSmall);
    const simapp::ComputationCostEngine engine;
    const network::MachineConfig machine = network::make_es45_qsnet();
    const core::KrakModel model(
        core::calibrate_from_input(engine, small, {8, 32, 128}), machine);

    std::vector<core::CampaignRun> mesh_specific;
    for (std::int32_t pes : {8, 16}) {
      mesh_specific.push_back(
          {mesh::DeckSize::kSmall, pes, core::CampaignRun::Flavor::kMeshSpecific});
    }
    std::vector<core::CampaignRun> general;
    for (std::int32_t pes : {16, 32}) {
      general.push_back({mesh::DeckSize::kSmall, pes,
                         core::CampaignRun::Flavor::kGeneralHomogeneous});
    }
    campaigns.push_back(core::campaign_to_json(
        "table5_quick",
        core::run_validation_campaign(model, engine, mesh_specific, config,
                                      threads,
                                      policy_for("table5_quick"))));
    campaigns.push_back(core::campaign_to_json(
        "table6_quick",
        core::run_validation_campaign(model, engine, general, config,
                                      threads,
                                      policy_for("table6_quick"))));
    replays.push_back(core::replay_to_json(
        "small_8pe", run_replay(small, 8, machine, engine,
                                /*iterations=*/2)));
    replays.push_back(run_parallel_scaling(small, /*ranks=*/128,
                                           "small_128pe_parallel", machine,
                                           engine, /*threads=*/4));
    // CI-scale cut of the full mode's large_100k scenario: the same
    // synthetic generator and full stack (hierarchical network +
    // shared-NIC contention), ~20k ranks instead of ~100k, so the
    // perf-smoke gate exercises the sharded-NIC path on every PR.
    replays.push_back(run_parallel_scaling(
        mesh::make_synthetic_deck(mesh::paper_synthetic_spec(1024, 128)),
        /*ranks=*/20480, "synthetic_20k_parallel", machine, engine,
        /*threads=*/8, partition::PartitionMethod::kRcb, /*full_stack=*/true));
  } else {
    const krakbench::Environment& env = krakbench::environment();
    campaigns.push_back(core::campaign_to_json(
        "table5_meshspecific",
        core::run_validation_campaign(env.model, env.engine,
                                      core::table5_runs(), config,
                                      threads,
                                      policy_for("table5_meshspecific"))));
    campaigns.push_back(core::campaign_to_json(
        "table6_general",
        core::run_validation_campaign(env.model, env.engine,
                                      core::table6_runs(), config,
                                      threads,
                                      policy_for("table6_general"))));
    replays.push_back(core::replay_to_json(
        "medium_64pe",
        run_replay(mesh::make_standard_deck(mesh::DeckSize::kMedium), 64,
                   env.machine, env.engine, /*iterations=*/3)));
    replays.push_back(run_parallel_scaling(
        mesh::make_standard_deck(mesh::DeckSize::kMedium), /*ranks=*/10240,
        "medium_10240pe_parallel", env.machine, env.engine, /*threads=*/8));

    // Strong-scaling validation sweep far past Table 5/6's 512-PE
    // ceiling: the large deck at P in {1024, 2048, 4096} against the
    // general homogeneous model. The reference machine tops out at
    // 1024 PEs, so the sweep runs on a widened copy — same per-node
    // shape, more nodes — with the model rebuilt around it (the cost
    // table is machine-independent). Measurements use the sharded
    // engine at 8 threads, which is bit-identical to the oracle.
    network::MachineConfig scaled_machine = env.machine;
    scaled_machine.nodes = 4096 / scaled_machine.pes_per_node;
    const core::KrakModel scaled_model(env.model.cost_table(),
                                       scaled_machine);
    core::ValidationConfig scaling_config = config;
    scaling_config.sim_threads = 8;
    std::vector<core::CampaignRun> scaling_runs;
    for (std::int32_t pes : {1024, 2048, 4096}) {
      scaling_runs.push_back({mesh::DeckSize::kLarge, pes,
                              core::CampaignRun::Flavor::kGeneralHomogeneous});
    }
    campaigns.push_back(core::campaign_to_json(
        "strong_scaling",
        core::run_validation_campaign(scaled_model, env.engine, scaling_runs,
                                      scaling_config, threads,
                                      policy_for("strong_scaling"))));

    // The headline scenario of docs/PERFORMANCE.md's "The 100k-rank
    // regime": a 524,288-cell synthetic deck spread over 102,400 ranks
    // with the full stack on (hierarchical network + shared-NIC
    // contention), replayed serial-vs-8-shards with the identity check
    // above pinning makespan, per-rank breakdowns, traffic, and fault
    // stats to the oracle.
    replays.push_back(run_parallel_scaling(
        mesh::make_synthetic_deck(mesh::paper_synthetic_spec(2048, 256)),
        /*ranks=*/102400, "large_100k", env.machine, env.engine,
        /*threads=*/8, partition::PartitionMethod::kRcb, /*full_stack=*/true));
    // Double it: the serial oracle's event heap grows past any cache
    // level while the per-shard heaps stay an eighth of it, so the
    // sharded engine's lead should widen, not collapse, with scale —
    // this datapoint and large_100k pin the curve's direction.
    replays.push_back(run_parallel_scaling(
        mesh::make_synthetic_deck(mesh::paper_synthetic_spec(2048, 512)),
        /*ranks=*/204800, "large_200k", env.machine, env.engine,
        /*threads=*/8, partition::PartitionMethod::kRcb, /*full_stack=*/true));
  }

  return core::make_bench_report(
      quick ? "krak_bench_quick" : "krak_bench", quick,
      core::detect_bench_environment(), std::move(campaigns),
      std::move(replays), obs::global_registry().snapshot());
}

/// Total scenario failures recorded across every campaign.
std::size_t count_failures(const obs::Json& report) {
  std::size_t failures = 0;
  for (const obs::Json& campaign : report.find("campaigns")->as_array()) {
    if (const obs::Json* list = campaign.find("failures")) {
      failures += list->size();
    }
  }
  return failures;
}

// Console digest of an already-validated report, so the fields below
// are guaranteed present.
void print_summary(const obs::Json& report) {
  for (const obs::Json& campaign : report.find("campaigns")->as_array()) {
    std::cout << "campaign " << campaign.find("name")->as_string() << ": "
              << campaign.find("runs")->as_array().size() << " runs, wall "
              << campaign.find("wall_seconds")->as_double()
              << " s, utilization "
              << campaign.find("thread_utilization")->as_double()
              << ", worst |error| "
              << campaign.find("worst_abs_error")->as_double() << "\n";
    if (const obs::Json* list = campaign.find("failures")) {
      for (const obs::Json& failure : list->as_array()) {
        std::cout << "  FAILED " << failure.find("scenario")->as_string()
                  << ": " << failure.find("error")->as_string() << "\n";
      }
    }
  }
  for (const obs::Json& replay : report.find("replays")->as_array()) {
    const obs::Json& phases = *replay.find("phases");
    std::cout << "replay " << replay.find("name")->as_string() << ": "
              << replay.find("ranks")->as_double() << " ranks, makespan "
              << replay.find("makespan_s")->as_double() << " s (compute "
              << phases.find("compute_s")->as_double() << ", p2p "
              << phases.find("p2p_s")->as_double() << ", collective "
              << phases.find("collective_s")->as_double() << ")\n";
  }
}

int run(const util::ArgParser& args) {
  // Every value is checked before anything runs or is written.
  core::CampaignPolicy policy;
  policy.max_attempts = count_option(args, "max-attempts", 1);
  policy.quarantine_after = count_option(args, "quarantine-after", 2);
  policy.backoff_initial_seconds = seconds_option(args, "retry-backoff");
  policy.scenario_deadline_seconds = seconds_option(args, "scenario-deadline");
  policy.campaign_deadline_seconds = seconds_option(args, "campaign-deadline");
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0) {
    throw util::InvalidArgument(
        "option --threads expects a non-negative integer, got " +
        std::to_string(threads));
  }

  const std::string validate = args.get_string("validate", "");
  if (!validate.empty()) return validate_file(validate);
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    throw util::InvalidArgument("--out FILE is required to generate a report");
  }
  const std::string store = args.get_string("partition-store", "");
  if (!store.empty()) {
    // Attach before anything partitions (calibration included), so a
    // warm store satisfies every configuration of the run.
    core::PartitionCache::global().set_store(
        std::make_shared<core::PartitionStore>(store));
  }

  std::cout << "krak_bench: generating " << out
            << (args.has("quick") ? " (quick mode)" : "") << "\n";
  obs::Json report;
  try {
    report = build_report(args, policy, static_cast<std::size_t>(threads));
  } catch (const std::exception& error) {
    std::cerr << "krak_bench: " << error.what() << "\n";
    return 1;
  }

  const std::vector<std::string> violations =
      obs::validate_bench_report(report);
  if (!violations.empty()) {
    for (const std::string& violation : violations) {
      std::cerr << "self-validation: " << violation << "\n";
    }
    std::cerr << "krak_bench: generated report violates "
              << obs::kBenchSchemaId << "; refusing to write\n";
    return 1;
  }

  // Atomic publish (temp + flush + rename): a crash — or a SIGKILL from
  // the crash-recovery CI job — can never leave a truncated report
  // under the real name for a downstream gate to parse.
  try {
    util::atomic_write_file(out, report.dump(2) + "\n");
  } catch (const std::exception& error) {
    std::cerr << "krak_bench: cannot write " << out << ": "
              << error.what() << "\n";
    return 1;
  }

  print_summary(report);
  const std::size_t failures = count_failures(report);
  std::cout << "krak_bench: wrote " << out << " (" << obs::kBenchSchemaId
            << ")\n";
  const std::string compare = args.get_string("compare", "");
  if (!compare.empty() &&
      run_compare_gate(report, compare, /*factor=*/1.5) != 0) {
    return 1;
  }
  if (failures > 0) {
    // The partial report above is still schema-valid and on disk; the
    // non-zero exit is the signal that some scenarios never measured.
    std::cerr << "krak_bench: " << failures
              << " campaign scenario(s) failed; see the report's"
                 " \"failures\" section\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(
      argc, argv,
      {"--quick", "--out FILE", "--validate FILE", "--faults FILE",
       "--threads N", "--compare BASELINE", "--partition-store DIR",
       "--journal FILE", "--resume", "--max-attempts N",
       "--quarantine-after N", "--retry-backoff S", "--scenario-deadline S",
       "--campaign-deadline S"},
      run);
}
