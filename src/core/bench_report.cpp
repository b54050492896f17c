#include "core/bench_report.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "obs/report.hpp"
#include "util/error.hpp"

// The build stamps the commit into krak_git_sha.hpp
// (cmake/GitStamp.cmake); a build of these sources without that step,
// such as perfbench's, reports "unknown".
#if __has_include("krak_git_sha.hpp")
#include "krak_git_sha.hpp"
#endif
#ifndef KRAK_GIT_SHA_DEFAULT
#define KRAK_GIT_SHA_DEFAULT "unknown"
#endif
#ifndef KRAK_BUILD_TYPE
#define KRAK_BUILD_TYPE "unknown"
#endif

namespace krak::core {

BenchEnvironment detect_bench_environment() {
  BenchEnvironment env;
  // One-time startup read before any pool work; no setenv anywhere in
  // the tree, so the getenv data race mt-unsafe guards against can't occur.
  const char* sha = std::getenv("KRAK_GIT_SHA");  // NOLINT(concurrency-mt-unsafe)
  env.git_sha = (sha != nullptr && *sha != '\0') ? sha : KRAK_GIT_SHA_DEFAULT;
  env.build_type = KRAK_BUILD_TYPE;
#if defined(__clang__)
  env.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  env.compiler = "gcc " __VERSION__;
#endif
  env.hardware_concurrency = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  return env;
}

obs::Json campaign_to_json(const std::string& name,
                           const CampaignSummary& summary) {
  util::check(summary.points.size() == summary.run_wall_seconds.size(),
              "campaign summary points/wall-times mismatch");
  obs::Json out = obs::Json::object();
  out["name"] = name;
  out["wall_seconds"] = summary.wall_seconds;
  out["threads"] = static_cast<std::int64_t>(summary.threads_used);
  out["thread_utilization"] = summary.thread_utilization;
  out["worst_abs_error"] = summary.worst_abs_error;
  out["mean_abs_error"] = summary.mean_abs_error;
  // Resilience accounting (docs/RESILIENCE.md): what the campaign
  // policy did — attempts, retries, journal replays, quarantines. The
  // crash-recovery CI gate reads `resilience.replayed` to prove a
  // resumed campaign actually reused journaled measurements.
  {
    obs::Json resilience = obs::Json::object();
    resilience["attempts"] =
        static_cast<std::int64_t>(summary.resilience.attempts);
    resilience["retries"] =
        static_cast<std::int64_t>(summary.resilience.retries);
    resilience["replayed"] =
        static_cast<std::int64_t>(summary.resilience.replayed);
    resilience["quarantined"] =
        static_cast<std::int64_t>(summary.resilience.quarantined);
    resilience["deadline_failures"] =
        static_cast<std::int64_t>(summary.resilience.deadline_failures);
    resilience["backoff_s"] = summary.resilience.backoff_seconds;
    out["resilience"] = std::move(resilience);
  }
  std::set<std::size_t> failed;
  for (const CampaignFailure& failure : summary.failures) {
    failed.insert(failure.run_index);
  }
  obs::Json runs = obs::Json::array();
  for (std::size_t i = 0; i < summary.points.size(); ++i) {
    if (failed.count(i) != 0) continue;  // placeholder, listed under failures
    const ValidationPoint& point = summary.points[i];
    obs::Json run = obs::Json::object();
    run["problem"] = point.problem;
    run["pes"] = point.pes;
    run["measured_s"] = point.measured;
    run["predicted_s"] = point.predicted;
    run["error"] = point.error();
    run["wall_seconds"] = summary.run_wall_seconds[i];
    runs.push_back(std::move(run));
  }
  out["runs"] = std::move(runs);
  if (!summary.failures.empty()) {
    obs::Json failures = obs::Json::array();
    for (const CampaignFailure& failure : summary.failures) {
      obs::Json entry = obs::Json::object();
      entry["run_index"] = static_cast<std::int64_t>(failure.run_index);
      entry["scenario"] = failure.scenario;
      entry["error"] = failure.error;
      entry["attempts"] = static_cast<std::int64_t>(failure.attempts);
      entry["class"] =
          std::string(failure.transient ? "transient" : "deterministic");
      entry["quarantined"] = failure.quarantined;
      if (failure.has_sim_failure) {
        obs::Json cause = obs::Json::object();
        cause["kind"] =
            std::string(sim::sim_failure_kind_name(failure.sim_failure.kind));
        cause["rank"] = failure.sim_failure.rank;
        cause["op_index"] =
            static_cast<std::int64_t>(failure.sim_failure.op_index);
        cause["detail"] = failure.sim_failure.to_string();
        entry["sim_failure"] = std::move(cause);
      }
      failures.push_back(std::move(entry));
    }
    out["failures"] = std::move(failures);
  }
  return out;
}

obs::Json replay_to_json(const std::string& name,
                         const simapp::SimKrakResult& result) {
  obs::Json out = obs::Json::object();
  out["name"] = name;
  out["ranks"] = result.ranks;
  out["makespan_s"] = result.total_time;
  out["time_per_iteration_s"] = result.time_per_iteration;
  out["events"] = static_cast<std::int64_t>(result.events_processed);
  out["max_queue_depth"] = static_cast<std::int64_t>(result.max_queue_depth);

  obs::Json phases = obs::Json::object();
  phases["compute_s"] = result.totals.compute;
  phases["p2p_s"] = result.totals.p2p_seconds();
  phases["collective_s"] = result.totals.collective_seconds();
  out["phases"] = std::move(phases);

  obs::Json blocked = obs::Json::object();
  blocked["send_wait_s"] = result.totals.send_wait;
  blocked["recv_wait_s"] = result.totals.recv_wait;
  blocked["collective_wait_s"] = result.totals.collective_wait;
  blocked["collective_cost_s"] = result.totals.collective_cost;
  out["blocked"] = std::move(blocked);

  if (result.fault_stats.injections > 0 || result.failed()) {
    obs::Json fault = obs::Json::object();
    fault["injections"] = result.fault_stats.injections;
    fault["retransmits"] = result.fault_stats.retransmits;
    fault["messages_lost"] = result.fault_stats.messages_lost;
    fault["fault_delay_s"] = result.fault_stats.fault_delay_seconds;
    fault["recovery_s"] = result.fault_stats.recovery_seconds;
    obs::Json failures = obs::Json::array();
    for (const sim::SimFailure& failure : result.failures) {
      obs::Json entry = obs::Json::object();
      entry["kind"] = std::string(sim::sim_failure_kind_name(failure.kind));
      entry["rank"] = failure.rank;
      entry["op_index"] = static_cast<std::int64_t>(failure.op_index);
      entry["detail"] = failure.to_string();
      failures.push_back(std::move(entry));
    }
    fault["failures"] = std::move(failures);
    out["fault"] = std::move(fault);
  }

  obs::Json traffic = obs::Json::object();
  traffic["p2p_messages"] = result.traffic.point_to_point_messages;
  traffic["p2p_bytes"] = result.traffic.point_to_point_bytes;
  traffic["allreduces"] = result.traffic.allreduces;
  traffic["broadcasts"] = result.traffic.broadcasts;
  traffic["gathers"] = result.traffic.gathers;
  out["traffic"] = std::move(traffic);

  obs::Json per_phase = obs::Json::array();
  for (std::size_t p = 0; p < result.phase_times.size(); ++p) {
    obs::Json entry = obs::Json::object();
    entry["phase"] = static_cast<std::int64_t>(p + 1);
    entry["mean_seconds"] = result.phase_times[p];
    per_phase.push_back(std::move(entry));
  }
  out["iteration_phases"] = std::move(per_phase);
  return out;
}

void attach_parallel_scaling(obs::Json& replay, std::int32_t threads,
                             double serial_wall_s, double parallel_wall_s,
                             double coordinator_s) {
  util::check(threads >= 1, "attach_parallel_scaling: threads must be >= 1");
  util::check(coordinator_s >= 0.0,
              "attach_parallel_scaling: coordinator_s must be >= 0");
  obs::Json parallel = obs::Json::object();
  parallel["threads"] = threads;
  parallel["serial_wall_s"] = serial_wall_s;
  parallel["parallel_wall_s"] = parallel_wall_s;
  parallel["speedup_vs_oracle"] =
      parallel_wall_s > 0.0 ? serial_wall_s / parallel_wall_s : 0.0;
  // Clamped to 1: the coordinator wall is measured inside the run, the
  // replay wall outside it, so scheduler noise on a loaded host could
  // otherwise nudge the ratio past the [0,1] range the schema pins.
  parallel["coordinator_serial_fraction"] =
      parallel_wall_s > 0.0
          ? std::min(1.0, coordinator_s / parallel_wall_s)
          : 0.0;
  replay["parallel"] = std::move(parallel);
}

namespace {

/// The perf gate shared by campaigns and parallel replays: every name
/// must appear on both sides, and no wall may exceed `factor` x its
/// baseline. `noun` names the gated entries in the messages.
std::vector<std::string> compare_walls(
    const std::map<std::string, double>& walls,
    const std::map<std::string, double>& baseline_walls, double factor,
    const std::string& noun) {
  std::vector<std::string> failures;
  for (const auto& [name, wall] : walls) {
    const auto base = baseline_walls.find(name);
    if (base == baseline_walls.end()) {
      failures.push_back(noun + " '" + name + "' has no like-named " + noun +
                         " in the baseline report; the gate cannot vouch"
                         " for it");
      continue;
    }
    if (wall > base->second * factor) {
      std::ostringstream message;
      message << noun << " '" << name << "' regressed: " << wall
              << " s vs baseline " << base->second << " s (limit " << factor
              << "x)";
      failures.push_back(message.str());
    }
  }
  for (const auto& [name, wall] : baseline_walls) {
    (void)wall;
    if (walls.count(name) == 0) {
      failures.push_back("baseline " + noun + " '" + name +
                         "' is missing from the generated report; a dropped"
                         " or renamed " + noun + " disables its gate");
    }
  }
  return failures;
}

std::map<std::string, double> campaign_walls(const obs::Json& report) {
  std::map<std::string, double> walls;
  for (const obs::Json& campaign : report.find("campaigns")->as_array()) {
    walls.emplace(campaign.find("name")->as_string(),
                  campaign.find("wall_seconds")->as_double());
  }
  return walls;
}

/// Serial replays carry no engine wall to bound and are left out.
std::map<std::string, double> parallel_replay_walls(const obs::Json& report) {
  std::map<std::string, double> walls;
  for (const obs::Json& replay : report.find("replays")->as_array()) {
    if (const obs::Json* parallel = replay.find("parallel")) {
      walls.emplace(replay.find("name")->as_string(),
                    parallel->find("parallel_wall_s")->as_double());
    }
  }
  return walls;
}

}  // namespace

std::vector<std::string> compare_campaign_walls(const obs::Json& report,
                                                const obs::Json& baseline,
                                                double factor) {
  return compare_walls(campaign_walls(report), campaign_walls(baseline),
                       factor, "campaign");
}

std::vector<std::string> compare_replay_walls(const obs::Json& report,
                                              const obs::Json& baseline,
                                              double factor) {
  return compare_walls(parallel_replay_walls(report),
                       parallel_replay_walls(baseline), factor,
                       "parallel replay");
}

obs::Json make_bench_report(const std::string& name, bool quick,
                            const BenchEnvironment& environment,
                            std::vector<obs::Json> campaigns,
                            std::vector<obs::Json> replays,
                            const obs::Snapshot& metrics) {
  obs::Json report = obs::Json::object();
  report["schema"] = std::string(obs::kBenchSchemaId);
  report["name"] = name;
  report["quick"] = quick;

  obs::Json env = obs::Json::object();
  env["git_sha"] = environment.git_sha;
  env["build_type"] = environment.build_type;
  env["compiler"] = environment.compiler;
  env["hardware_concurrency"] = environment.hardware_concurrency;
  report["environment"] = std::move(env);

  obs::Json campaign_array = obs::Json::array();
  for (obs::Json& campaign : campaigns) {
    campaign_array.push_back(std::move(campaign));
  }
  report["campaigns"] = std::move(campaign_array);

  obs::Json replay_array = obs::Json::array();
  for (obs::Json& replay : replays) replay_array.push_back(std::move(replay));
  report["replays"] = std::move(replay_array);

  report["metrics"] = obs::snapshot_to_json(metrics);
  return report;
}

}  // namespace krak::core
