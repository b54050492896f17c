// krakperf: the workload runner behind perfbench/run.py.
//
// Runs one benchmark workload in this process and writes a JSON record
// of what it measured: set-up and timed-phase walls, peak RSS, the
// model/replay outputs of every operation, the operations that failed
// and why, and the isolation checks. run.py turns the record into
// metrics and compares the outputs with the reference values.
//
// Usage:
//   krakperf --workload validate_cold|validate_warm|replay_sharded
//            --seed N --seconds S --out FILE --tmp DIR
//            [--trace FILE]
//
// Workload seed N sets the multilevel partition seed to N and the
// SimKrak noise seed to N + 41, so seed 1 is the repository's reference
// configuration (partition seed 1, noise seed 42).
//
// Without --trace, set-up runs at least three times and until three
// seconds of it have been measured, then the timed operation
// repeats until S seconds have passed. With --trace the workload sets
// up once and runs its operation twice untraced, then sets up and runs
// once more with spans recorded around every call into a library
// layer; the spans are written to FILE as Chrome trace-event JSON, and
// the traced outputs must equal the untraced ones bit for bit.
// The partition store lives in a private directory under DIR that is
// removed before exit.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/model.hpp"
#include "core/partition_cache.hpp"
#include "core/partition_store.hpp"
#include "mesh/deck.hpp"
#include "mesh/synthetic.hpp"
#include "network/machine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "partition/stats.hpp"
#include "simapp/costmodel.hpp"
#include "simapp/simkrak.hpp"
#include "util/atomic_file.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace krak;
using obs::Json;

// ---------------------------------------------------------------- tracing

/// In-memory span log of one traced run. Spans open and close in LIFO
/// order on the main thread, so the stack of open spans names each new
/// span's parent.
class Tracer {
 public:
  std::int32_t open(std::string name) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({std::move(name), now_ns(), -1,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds); loads
  /// in chrome://tracing or ui.perfetto.dev.
  [[nodiscard]] Json to_chrome_json() const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      Json event = Json::object();
      event["name"] = span.name;
      event["cat"] = span.name.substr(0, span.name.find('.'));
      event["ph"] = "X";
      event["pid"] = 1;
      event["tid"] = 1;
      event["ts"] = static_cast<double>(span.start_ns) / 1e3;
      event["dur"] = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      event["args"]["id"] = static_cast<std::int64_t>(i);
      event["args"]["parent"] = span.parent;
      events.push_back(std::move(event));
    }
    Json out = Json::object();
    out["traceEvents"] = std::move(events);
    out["displayTimeUnit"] = "ms";
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int32_t parent = -1;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// A span over the enclosing scope; records nothing when `tracer` is
/// null, so untraced runs execute the same calls without recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// ------------------------------------------------------------ host probes

/// Return freed heap to the kernel, then reset its peak-RSS mark to
/// the current RSS, so VmHWM read later covers only what ran in between
/// and not the heap set-up freed.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Counter value of the global obs registry (0 when never registered).
std::int64_t obs_count(const obs::Snapshot& snapshot, const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second.count;
}

double obs_value(const obs::Snapshot& snapshot, const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.value;
}

/// Counter deltas between two registry snapshots, for the names given.
Json counter_deltas(const obs::Snapshot& before, const obs::Snapshot& after,
                    const std::vector<std::string>& names) {
  Json out = Json::object();
  for (const std::string& name : names) {
    out[name] = obs_count(after, name) - obs_count(before, name);
  }
  return out;
}

/// A private temporary directory, removed with everything in it when
/// the object dies (normal exit and exceptions alike).
class PrivateDir {
 public:
  explicit PrivateDir(const std::filesystem::path& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = (parent / "store-XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a private directory under " +
                               parent.string());
    }
    path_ = pattern;
  }
  ~PrivateDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;

  /// A fresh, empty subdirectory for one partition store.
  [[nodiscard]] std::filesystem::path fresh(const std::string& name) const {
    const std::filesystem::path dir = path_ / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

 private:
  std::filesystem::path path_;
};

// --------------------------------------------------------------- workload

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out;
  std::string tmp;
  std::string trace;  // non-empty: traced run, spans written here
};

/// Whether the timed operation runs once more: an untraced run repeats
/// it until `args.seconds` have passed; a traced run runs it twice
/// untraced, the second time in the same warmed-up process state as
/// the traced pass that follows, whose overhead it is compared with.
bool more_reps(const Args& args, const Json& wall_s,
               const util::Stopwatch& phase) {
  if (!args.trace.empty()) return wall_s.size() < 2;
  return phase.seconds() < args.seconds;
}

/// Whether an untraced run sets up once more: at least three times, and
/// until three seconds of set-up have been measured (at most ten times),
/// so a short set-up still gets a steady median. A traced run sets up
/// once.
bool more_setup(const Args& args, const Json& setup_s) {
  const std::size_t done = setup_s.size();
  if (!args.trace.empty()) return done < 1;
  double total = 0.0;
  for (const Json& seconds : setup_s.as_array()) total += seconds.as_double();
  return done < 3 || (total < 3.0 && done < 10);
}

/// Outcome of one operation (a scenario or a replay): its output values
/// and the reasons it failed, if any.
struct OpResult {
  std::string label;
  Json values = Json::object();
  std::vector<std::string> failures;
};

/// Checks shared by every SimKrak result: finite outputs, no watchdog
/// failure, and per-rank breakdowns that add up to a finish time no
/// later than the makespan, the latest of them reaching it.
void check_sim_result(const simapp::SimKrakResult& result, OpResult& op) {
  if (result.failed()) {
    op.failures.push_back("simulation failed: " +
                          result.failures.front().to_string());
  }
  if (!std::isfinite(result.total_time) || result.total_time <= 0.0) {
    op.failures.push_back("non-finite or non-positive makespan");
  }
  double latest = 0.0;
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    const double finish = rank.total_seconds();
    if (!std::isfinite(finish) || finish > result.total_time * (1.0 + 1e-9)) {
      op.failures.push_back("a rank's breakdown exceeds the makespan");
      return;
    }
    latest = std::max(latest, finish);
  }
  if (std::abs(latest - result.total_time) > 1e-9 * result.total_time) {
    op.failures.push_back(
        "no rank's breakdown adds up to the makespan (latest finish " +
        std::to_string(latest) + " s)");
  }
}

/// Outputs of a SimKrak result compared against the reference replay.
Json replay_values(const simapp::SimKrakResult& result) {
  Json values = Json::object();
  values["makespan_s"] = result.total_time;
  values["time_per_iteration_s"] = result.time_per_iteration;
  values["events"] = static_cast<std::int64_t>(result.events_processed);
  values["compute_s"] = result.totals.compute;
  values["p2p_s"] = result.totals.p2p_seconds();
  values["collective_s"] = result.totals.collective_seconds();
  values["send_wait_s"] = result.totals.send_wait;
  values["recv_wait_s"] = result.totals.recv_wait;
  values["collective_wait_s"] = result.totals.collective_wait;
  values["collective_cost_s"] = result.totals.collective_cost;
  values["p2p_messages"] = result.traffic.point_to_point_messages;
  values["p2p_bytes"] = result.traffic.point_to_point_bytes;
  values["allreduces"] = result.traffic.allreduces;
  values["broadcasts"] = result.traffic.broadcasts;
  values["gathers"] = result.traffic.gathers;
  Json phases = Json::array();
  for (const double seconds : result.phase_times) phases.push_back(seconds);
  values["phase_mean_s"] = std::move(phases);
  return values;
}

/// Bit-exact comparison of two runs of one operation; a mismatch is a
/// failure of `op` (the later run).
void require_same(const OpResult& first, OpResult& op, const char* what) {
  if (!(first.values == op.values)) {
    op.failures.push_back(std::string("outputs differ from ") + what);
  }
}

Json ops_json(const std::vector<OpResult>& ops) {
  Json out = Json::array();
  for (const OpResult& op : ops) {
    Json entry = Json::object();
    entry["label"] = op.label;
    entry["values"] = op.values;
    Json failures = Json::array();
    for (const std::string& failure : op.failures) failures.push_back(failure);
    entry["failures"] = std::move(failures);
    out.push_back(std::move(entry));
  }
  return out;
}

std::size_t count_failed(const std::vector<OpResult>& ops) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](const OpResult& op) { return !op.failures.empty(); }));
}

/// Registry counters the per-layer ledger reads.
const std::vector<std::string>& ledger_counters() {
  static const std::vector<std::string> kNames = {
      "partition.fm.moves",
      "partition.fm.passes",
      "partition.ladder.hits",
      "sim.parallel.epochs",
      "sim.parallel.cross_shard_messages",
  };
  return kNames;
}

// ------------------------------------------------------ validate_* workloads

/// One of the 15 validation scenarios: Table 5, Table 6, and the
/// 1024/2048/4096-PE strong-scaling sweep on a widened machine.
struct Scenario {
  std::size_t campaign = 0;  // index into ValidateSetup::campaigns
  core::CampaignRun run;
};

/// Everything set-up produces for the validate_* workloads.
struct ValidateSetup {
  simapp::ComputationCostEngine engine;
  std::unique_ptr<core::KrakModel> model;         // Tables 5 and 6
  std::unique_ptr<core::KrakModel> scaled_model;  // strong scaling
  std::shared_ptr<core::PartitionStore> store;
  std::string store_name;
  struct Campaign {
    std::string name;
    const core::KrakModel* model = nullptr;
    std::vector<core::CampaignRun> runs;
  };
  std::vector<Campaign> campaigns;
  std::vector<Scenario> scenarios;
};

core::PartitionStore::Key store_key(const mesh::InputDeck& deck,
                                    std::int32_t pes, std::uint64_t seed) {
  return {core::deck_fingerprint(deck), pes,
          partition::PartitionMethod::kMultilevel, seed};
}

/// Drop every in-memory partition cache of the library, so the next
/// request partitions (or reads the store) again.
void clear_partition_caches() {
  core::PartitionCache::global().set_store(nullptr);
  core::PartitionCache::global().clear();
  partition::clear_multilevel_ladder_cache();
}

/// Set-up of validate_*: calibrate the model (Method 2, medium deck,
/// 8/64/512/4096 PEs), then open an empty store; validate_warm fills it
/// with every scenario partition. The store is attached only after
/// calibration, whose partitions use their own seed and never reach it.
std::unique_ptr<ValidateSetup> setup_validate(bool warm,
                                              std::uint64_t partition_seed,
                                              const PrivateDir& dir,
                                              const std::string& store_name,
                                              Tracer* tracer) {
  const ScopedSpan span(tracer, "setup");
  auto setup = std::make_unique<ValidateSetup>();
  const network::MachineConfig machine = network::make_es45_qsnet();
  std::optional<mesh::InputDeck> medium;
  {
    const ScopedSpan deck_span(tracer, "mesh.deck");
    medium.emplace(mesh::make_standard_deck(mesh::DeckSize::kMedium));
  }
  std::optional<core::CostTable> table;
  {
    const ScopedSpan calibrate_span(tracer, "core.calibrate");
    table.emplace(core::calibrate_from_input(setup->engine, *medium,
                                             {8, 64, 512, 4096}));
  }
  setup->model = std::make_unique<core::KrakModel>(*table, machine);
  network::MachineConfig scaled_machine = machine;
  scaled_machine.nodes = 4096 / scaled_machine.pes_per_node;
  setup->scaled_model =
      std::make_unique<core::KrakModel>(*table, scaled_machine);

  std::vector<core::CampaignRun> scaling;
  for (const std::int32_t pes : {1024, 2048, 4096}) {
    scaling.push_back({mesh::DeckSize::kLarge, pes,
                       core::CampaignRun::Flavor::kGeneralHomogeneous});
  }
  setup->campaigns = {
      {"table5_meshspecific", setup->model.get(), core::table5_runs()},
      {"table6_general", setup->model.get(), core::table6_runs()},
      {"strong_scaling", setup->scaled_model.get(), scaling},
  };
  for (std::size_t c = 0; c < setup->campaigns.size(); ++c) {
    for (const core::CampaignRun& run : setup->campaigns[c].runs) {
      setup->scenarios.push_back({c, run});
    }
  }

  setup->store_name = store_name;
  setup->store = std::make_shared<core::PartitionStore>(dir.fresh(store_name));
  if (warm) {
    // One set-up step: the partitions a cold run would have stored.
    const ScopedSpan fill_span(tracer, "core.store_fill");
    std::set<std::pair<mesh::DeckSize, std::int32_t>> filled;
    for (const Scenario& scenario : setup->scenarios) {
      if (!filled.insert({scenario.run.deck, scenario.run.pes}).second) continue;
      const mesh::InputDeck deck = mesh::make_standard_deck(scenario.run.deck);
      setup->store->save(
          store_key(deck, scenario.run.pes, partition_seed),
          partition::partition_deck(deck, scenario.run.pes,
                                    partition::PartitionMethod::kMultilevel,
                                    partition_seed, 1));
    }
  }
  clear_partition_caches();
  return setup;
}

core::ValidationConfig validation_config(std::uint64_t partition_seed,
                                         std::uint64_t noise_seed) {
  core::ValidationConfig config;
  config.partition_seed = partition_seed;
  config.noise_seed = noise_seed;
  config.iterations = 3;
  config.partition_threads = 1;
  config.sim_threads = 1;
  return config;
}

OpResult point_result(const std::string& label,
                      const core::ValidationPoint& point) {
  OpResult op;
  op.label = label;
  op.values["problem"] = point.problem;
  op.values["pes"] = point.pes;
  op.values["measured_s"] = point.measured;
  op.values["predicted_s"] = point.predicted;
  if (!std::isfinite(point.measured) || point.measured <= 0.0 ||
      !std::isfinite(point.predicted) || point.predicted <= 0.0) {
    op.failures.push_back("non-finite or non-positive measured/predicted");
  }
  return op;
}

/// The timed operation of validate_* as a user runs it: the three
/// campaigns through core::run_validation_campaign, one scenario at a
/// time (pool width 1), partitions through the global cache and the
/// attached store.
std::vector<OpResult> run_campaigns(const ValidateSetup& setup,
                                    const core::ValidationConfig& config) {
  std::vector<OpResult> ops;
  for (const ValidateSetup::Campaign& campaign : setup.campaigns) {
    const core::CampaignSummary summary = core::run_validation_campaign(
        *campaign.model, setup.engine, campaign.runs, config, /*threads=*/1);
    for (std::size_t i = 0; i < campaign.runs.size(); ++i) {
      ops.push_back(point_result(
          campaign.name + "/" + core::campaign_run_name(campaign.runs[i]),
          summary.points[i]));
    }
    for (const core::CampaignFailure& failure : summary.failures) {
      ops[ops.size() - campaign.runs.size() + failure.run_index]
          .failures.push_back("scenario failed: " + failure.error);
    }
  }
  return ops;
}

/// Per-layer counts of a traced validate pass.
struct ValidateCounts {
  std::int64_t events = 0;
  std::int64_t max_queue_depth = 0;
  double coordinator_s = 0.0;
  std::int64_t store_bytes = 0;
};

/// The timed operation of validate_*, traced: the same calls
/// run_validation_campaign makes for each scenario, made here with a
/// span around each — deck build, store load, multilevel partition and
/// store save on a miss, partition statistics, SimKrak run, model
/// prediction. Configurations repeated within the pass reuse their
/// partition, as the campaign's partition cache does.
std::vector<OpResult> run_campaigns_traced(
    const ValidateSetup& setup, const core::ValidationConfig& config,
    Tracer* tracer, ValidateCounts& counts) {
  const ScopedSpan run_span(tracer, "run");
  std::map<std::tuple<std::uint64_t, std::int32_t, std::uint64_t>,
           std::shared_ptr<const core::PartitionedDeck>>
      reused;
  std::vector<OpResult> ops;
  for (const Scenario& scenario : setup.scenarios) {
    const ValidateSetup::Campaign& campaign = setup.campaigns[scenario.campaign];
    const ScopedSpan scenario_span(tracer, "scenario");
    std::optional<mesh::InputDeck> deck;
    {
      const ScopedSpan span(tracer, "mesh.deck");
      deck.emplace(mesh::make_standard_deck(scenario.run.deck));
    }
    const core::PartitionStore::Key key =
        store_key(*deck, scenario.run.pes, config.partition_seed);
    std::shared_ptr<const core::PartitionedDeck>& partitioned =
        reused[{key.fingerprint, key.pes, key.seed}];
    if (partitioned == nullptr) {
      std::optional<partition::Partition> part;
      {
        const ScopedSpan span(tracer, "core.store_load");
        part = setup.store->load(key);
      }
      if (!part.has_value()) {
        {
          const ScopedSpan span(tracer, "partition.multilevel");
          part.emplace(partition::partition_deck(
              *deck, scenario.run.pes, partition::PartitionMethod::kMultilevel,
              config.partition_seed, config.partition_threads));
        }
        const ScopedSpan span(tracer, "core.store_save");
        setup.store->save(key, *part);
        counts.store_bytes += static_cast<std::int64_t>(
            std::filesystem::file_size(setup.store->entry_path(key)));
      }
      std::shared_ptr<const partition::PartitionStats> stats;
      {
        const ScopedSpan span(tracer, "partition.stats");
        stats = std::make_shared<const partition::PartitionStats>(*deck, *part);
      }
      partitioned = std::make_shared<const core::PartitionedDeck>(
          core::PartitionedDeck{std::move(*part), std::move(stats)});
    }

    std::optional<simapp::SimKrakResult> result;
    {
      const ScopedSpan span(tracer, "simapp.run");
      simapp::SimKrakOptions options;
      options.iterations = config.iterations;
      options.noise_seed = config.noise_seed;
      options.sim_threads = config.sim_threads;
      const simapp::SimKrak app(*deck, partitioned->partition,
                                campaign.model->machine(), setup.engine,
                                partitioned->stats, options);
      result.emplace(app.run());
    }
    counts.events += static_cast<std::int64_t>(result->events_processed);
    counts.max_queue_depth =
        std::max(counts.max_queue_depth,
                 static_cast<std::int64_t>(result->max_queue_depth));
    counts.coordinator_s += result->coordinator_seconds;

    core::ValidationPoint point;
    point.problem = deck->name();
    point.pes = scenario.run.pes;
    point.measured = result->time_per_iteration;
    {
      const ScopedSpan span(tracer, "core.predict");
      point.predicted =
          scenario.run.flavor == core::CampaignRun::Flavor::kMeshSpecific
              ? campaign.model->predict_mesh_specific(*partitioned->stats)
                    .total()
              : campaign.model
                    ->predict_general(deck->grid().num_cells(),
                                      scenario.run.pes,
                                      core::GeneralModelMode::kHomogeneous)
                    .total();
    }
    OpResult op = point_result(
        campaign.name + "/" + core::campaign_run_name(scenario.run), point);
    check_sim_result(*result, op);
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Unique scenario partitions: the 15 scenarios share one (deck, PEs)
/// configuration between Table 5 and Table 6 (medium deck, 128 PEs).
std::size_t unique_partitions(const ValidateSetup& setup) {
  std::set<std::pair<mesh::DeckSize, std::int32_t>> seen;
  for (const Scenario& scenario : setup.scenarios) {
    seen.insert({scenario.run.deck, scenario.run.pes});
  }
  return seen.size();
}

Json run_validate(const Args& args, bool warm, std::uint64_t partition_seed,
                  std::uint64_t noise_seed, const PrivateDir& dir) {
  const core::ValidationConfig config =
      validation_config(partition_seed, noise_seed);
  Json record = Json::object();
  Json isolation = Json::array();  // violated isolation checks
  const auto require = [&isolation](bool ok, const std::string& what) {
    if (!ok) isolation.push_back(what);
  };

  // Untraced: set-up (each time from cleared caches and a fresh store),
  // then the timed operation.
  Json setup_s = Json::array();
  std::unique_ptr<ValidateSetup> setup;
  while (more_setup(args, setup_s)) {
    setup.reset();
    clear_partition_caches();
    const util::Stopwatch watch;
    setup = setup_validate(warm, partition_seed, dir, "untraced", nullptr);
    setup_s.push_back(watch.seconds());
  }
  const std::size_t unique = unique_partitions(*setup);

  Json wall_s = Json::array();
  std::vector<OpResult> first;
  std::vector<OpResult> all_ops;
  core::PartitionCache::Counters cache_delta;
  const util::Stopwatch phase;
  int rep = 0;
  do {
    // Between repetitions, outside the timed interval: validate_cold
    // starts again from an empty store, validate_warm from its filled
    // store; both from empty in-memory caches.
    clear_partition_caches();
    if (!warm && rep > 0) {
      setup->store = std::make_shared<core::PartitionStore>(
          dir.fresh(setup->store_name));
    }
    core::PartitionCache::global().set_store(setup->store);
    const core::PartitionStore::Counters store_before = setup->store->counters();
    const core::PartitionCache::Counters cache_before =
        core::PartitionCache::global().counters();
    const obs::Snapshot before = obs::global_registry().snapshot();
    if (rep == 0) reset_peak_rss();

    const util::Stopwatch watch;
    std::vector<OpResult> ops = run_campaigns(*setup, config);
    wall_s.push_back(watch.seconds());
    if (rep == 0) record["peak_rss_mb"] = peak_rss_mb();

    const obs::Snapshot after = obs::global_registry().snapshot();
    const core::PartitionStore::Counters store_after = setup->store->counters();
    const core::PartitionCache::Counters cache_after =
        core::PartitionCache::global().counters();
    cache_delta = {cache_after.hits - cache_before.hits,
                   cache_after.misses - cache_before.misses};
    const std::uint64_t hits = store_after.hits - store_before.hits;
    const std::uint64_t misses = store_after.misses - store_before.misses;
    const std::uint64_t rejects = store_after.rejects - store_before.rejects;
    require(rejects == 0, "partition store rejected an entry");
    if (warm) {
      const std::int64_t calls =
          obs_count(after, "partition.multilevel.calls") -
          obs_count(before, "partition.multilevel.calls");
      require(calls == 0, "validate_warm partitioned during its timed phase (" +
                              std::to_string(calls) + " multilevel calls)");
      require(hits == unique && misses == 0,
              "validate_warm store served " + std::to_string(hits) +
                  " hits and " + std::to_string(misses) + " misses for " +
                  std::to_string(unique) + " unique partitions");
    } else {
      require(hits == 0 && misses == unique,
              "validate_cold store was not empty (" + std::to_string(hits) +
                  " hits)");
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (rep == 0) continue;
      require_same(first[i], ops[i], "the first repetition");
    }
    if (rep == 0) first = ops;
    all_ops.insert(all_ops.end(), ops.begin(), ops.end());
    ++rep;
  } while (more_reps(args, wall_s, phase));
  record["setup_s"] = setup_s;
  record["wall_s"] = wall_s;

  if (!args.trace.empty()) {
    // Traced pass: the same set-up and operation from cleared caches
    // and a fresh store, with spans; its outputs must equal the
    // untraced campaign's bit for bit.
    setup.reset();
    clear_partition_caches();
    Tracer tracer;
    ValidateCounts counts;
    std::vector<OpResult> traced;
    obs::Snapshot before;
    obs::Snapshot after;
    {
      const ScopedSpan root(&tracer, "workload");
      setup = setup_validate(warm, partition_seed, dir, "traced", &tracer);
      before = obs::global_registry().snapshot();
      traced = run_campaigns_traced(*setup, config, &tracer, counts);
      after = obs::global_registry().snapshot();
    }
    for (std::size_t i = 0; i < traced.size(); ++i) {
      require_same(first[i], traced[i], "the untraced campaign");
    }
    all_ops.insert(all_ops.end(), traced.begin(), traced.end());
    util::atomic_write_file(args.trace, tracer.to_chrome_json().dump(0) + "\n");

    const core::PartitionStore::Counters store = setup->store->counters();
    Json layers = counter_deltas(before, after, ledger_counters());
    layers["core.store_hits"] = static_cast<std::int64_t>(store.hits);
    layers["core.store_rejects"] = static_cast<std::int64_t>(store.rejects);
    layers["core.store_bytes"] = counts.store_bytes;
    layers["core.partition_cache_hits"] =
        static_cast<std::int64_t>(cache_delta.hits);
    layers["sim.events"] = counts.events;
    layers["sim.max_queue_depth"] = counts.max_queue_depth;
    layers["sim.parallel.coordinator_s"] = counts.coordinator_s;
    layers["sim.parallel.barrier_wait_s"] = 0.0;  // serial engine only
    layers["sim.parallel.speedup_vs_oracle"] = 0.0;
    record["layers"] = std::move(layers);
    record["untraced_wall_s"] = wall_s.as_array().back().as_double();
  }

  record["ops"] = ops_json(all_ops);
  record["reps"] = rep;
  record["attempted"] = static_cast<std::int64_t>(all_ops.size());
  record["failed"] = static_cast<std::int64_t>(count_failed(all_ops));
  record["isolation_violations"] = std::move(isolation);
  return record;
}

// ----------------------------------------------------- replay_sharded

constexpr std::int32_t kReplayRanks = 102400;
constexpr std::int32_t kReplayShards = 8;

/// Set-up of replay_sharded: BENCH_PR10's large_100k scenario — a
/// kraksynth 2048x256 deck over 102,400 ranks, RCB-partitioned, with
/// the hierarchical network and shared-NIC contention on a machine
/// widened to cover every rank.
struct ReplaySetup {
  simapp::ComputationCostEngine engine;
  network::MachineConfig machine = network::make_es45_qsnet();
  std::unique_ptr<mesh::InputDeck> deck;
  std::unique_ptr<partition::Partition> partition;
  std::shared_ptr<const partition::PartitionStats> stats;
};

std::unique_ptr<ReplaySetup> setup_replay(std::uint64_t partition_seed,
                                          Tracer* tracer) {
  const ScopedSpan span(tracer, "setup");
  auto setup = std::make_unique<ReplaySetup>();
  setup->machine.nodes = (kReplayRanks + setup->machine.pes_per_node - 1) /
                         setup->machine.pes_per_node;
  {
    const ScopedSpan deck_span(tracer, "mesh.deck");
    setup->deck = std::make_unique<mesh::InputDeck>(
        mesh::make_synthetic_deck(mesh::paper_synthetic_spec(2048, 256)));
  }
  {
    const ScopedSpan rcb_span(tracer, "partition.rcb");
    setup->partition = std::make_unique<partition::Partition>(
        partition::partition_deck(*setup->deck, kReplayRanks,
                                  partition::PartitionMethod::kRcb,
                                  partition_seed));
  }
  const ScopedSpan stats_span(tracer, "partition.stats");
  setup->stats = std::make_shared<const partition::PartitionStats>(
      *setup->deck, *setup->partition);
  return setup;
}

simapp::SimKrakResult replay(const ReplaySetup& setup, std::uint64_t noise_seed,
                             std::int32_t shards) {
  simapp::SimKrakOptions options;
  options.iterations = 1;
  options.noise_seed = noise_seed;
  options.hierarchical_network = true;
  options.nic_contention = true;
  options.sim_threads = shards;
  const simapp::SimKrak app(*setup.deck, *setup.partition, setup.machine,
                            setup.engine, setup.stats, options);
  return app.run();
}

OpResult replay_result(const simapp::SimKrakResult& result) {
  OpResult op;
  op.label = "large_100k";
  op.values = replay_values(result);
  check_sim_result(result, op);
  return op;
}

Json run_replay(const Args& args, std::uint64_t partition_seed,
                std::uint64_t noise_seed) {
  Json record = Json::object();
  Json setup_s = Json::array();
  std::unique_ptr<ReplaySetup> setup;
  while (more_setup(args, setup_s)) {
    setup.reset();
    const util::Stopwatch watch;
    setup = setup_replay(partition_seed, nullptr);
    setup_s.push_back(watch.seconds());
  }

  Json wall_s = Json::array();
  std::vector<OpResult> ops;
  const util::Stopwatch phase;
  do {
    if (ops.empty()) reset_peak_rss();
    const util::Stopwatch watch;
    const simapp::SimKrakResult result = replay(*setup, noise_seed, kReplayShards);
    wall_s.push_back(watch.seconds());
    if (ops.empty()) record["peak_rss_mb"] = peak_rss_mb();
    ops.push_back(replay_result(result));
    if (ops.size() > 1) require_same(ops.front(), ops.back(), "the first repetition");
  } while (more_reps(args, wall_s, phase));
  record["setup_s"] = setup_s;
  record["wall_s"] = wall_s;

  if (!args.trace.empty()) {
    setup.reset();
    Tracer tracer;
    obs::Snapshot before;
    std::optional<simapp::SimKrakResult> sharded;
    {
      const ScopedSpan root(&tracer, "workload");
      setup = setup_replay(partition_seed, &tracer);
      const ScopedSpan run_span(&tracer, "run");
      before = obs::global_registry().snapshot();
      const ScopedSpan span(&tracer, "simapp.run");
      sharded.emplace(replay(*setup, noise_seed, kReplayShards));
    }
    const obs::Snapshot after = obs::global_registry().snapshot();
    OpResult traced = replay_result(*sharded);
    require_same(ops.front(), traced, "the untraced replay");

    // Outside the ledger: the single-thread oracle at the same seed,
    // which the sharded engine must reproduce exactly.
    const util::Stopwatch oracle_watch;
    const simapp::SimKrakResult oracle = replay(*setup, noise_seed, 1);
    const double oracle_wall = oracle_watch.seconds();
    OpResult oracle_op = replay_result(oracle);
    if (!(oracle_op.values == traced.values)) {
      traced.failures.push_back("sharded replay differs from the oracle");
    }
    for (std::size_t r = 0; r < oracle.rank_breakdown.size(); ++r) {
      if (oracle.rank_breakdown[r].total_seconds() !=
          sharded->rank_breakdown[r].total_seconds()) {
        traced.failures.push_back(
            "sharded per-rank breakdown differs from the oracle at rank " +
            std::to_string(r));
        break;
      }
    }
    ops.push_back(std::move(traced));
    util::atomic_write_file(args.trace, tracer.to_chrome_json().dump(0) + "\n");

    Json layers = counter_deltas(before, after, ledger_counters());
    layers["core.store_hits"] = 0;
    layers["core.store_rejects"] = 0;
    layers["core.store_bytes"] = 0;
    layers["core.partition_cache_hits"] = 0;
    layers["sim.events"] = static_cast<std::int64_t>(sharded->events_processed);
    layers["sim.max_queue_depth"] =
        static_cast<std::int64_t>(sharded->max_queue_depth);
    layers["sim.parallel.coordinator_s"] = sharded->coordinator_seconds;
    layers["sim.parallel.barrier_wait_s"] =
        obs_value(after, "sim.parallel.barrier_wait_s");
    // Both walls come from the warmed-up process the oracle runs in.
    const double untraced_wall = wall_s.as_array().back().as_double();
    layers["sim.parallel.speedup_vs_oracle"] = oracle_wall / untraced_wall;
    record["layers"] = std::move(layers);
    record["oracle_wall_s"] = oracle_wall;
    record["untraced_wall_s"] = untraced_wall;
  }

  record["ops"] = ops_json(ops);
  record["reps"] = static_cast<std::int64_t>(wall_s.size());
  record["attempted"] = static_cast<std::int64_t>(ops.size());
  record["failed"] = static_cast<std::int64_t>(count_failed(ops));
  record["isolation_violations"] = Json::array();
  return record;
}

// ------------------------------------------------------------------- main

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--trace") {
      args.trace = value;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (argc % 2 != 1 || args.out.empty() || args.tmp.empty() ||
      (args.workload != "validate_cold" && args.workload != "validate_warm" &&
       args.workload != "replay_sharded")) {
    throw std::invalid_argument(
        "usage: krakperf --workload validate_cold|validate_warm|replay_sharded"
        " --seed N --seconds S --out FILE --tmp DIR [--trace FILE]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const std::uint64_t partition_seed = args.seed;
    const std::uint64_t noise_seed = args.seed + 41;
    const PrivateDir dir(args.tmp);
    Json record = args.workload == "replay_sharded"
                      ? run_replay(args, partition_seed, noise_seed)
                      : run_validate(args, args.workload == "validate_warm",
                                     partition_seed, noise_seed, dir);
    record["workload"] = args.workload;
    record["seed"] = static_cast<std::int64_t>(args.seed);
    record["partition_seed"] = static_cast<std::int64_t>(partition_seed);
    record["noise_seed"] = static_cast<std::int64_t>(noise_seed);
    record["build_type"] = KRAKPERF_BUILD_TYPE;
#if defined(__clang__)
    record["compiler"] = __VERSION__;
#else
    record["compiler"] = "gcc " __VERSION__;
#endif
    util::atomic_write_file(args.out, record.dump(1) + "\n");
  } catch (const std::exception& error) {
    std::cerr << "krakperf: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
