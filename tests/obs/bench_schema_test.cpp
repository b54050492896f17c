#include "obs/bench_schema.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace krak::obs {
namespace {

/// Hand-built minimal conforming document (independent of the emitter
/// in core/bench_report.cpp, so schema and emitter are tested against
/// each other rather than against themselves).
Json minimal_valid_report() {
  Json report = Json::object();
  report["schema"] = std::string(kBenchSchemaId);
  report["name"] = "unit";
  report["quick"] = true;

  Json& env = report["environment"];
  env["git_sha"] = "deadbeef";
  env["build_type"] = "Release";
  env["compiler"] = "gcc 13";
  env["hardware_concurrency"] = 8;

  Json run = Json::object();
  run["problem"] = "small 80x40";
  run["pes"] = 16;
  run["measured_s"] = 0.5;
  run["predicted_s"] = 0.45;
  run["error"] = 0.1;
  run["wall_seconds"] = 0.01;

  Json campaign = Json::object();
  campaign["name"] = "table5";
  campaign["wall_seconds"] = 0.02;
  campaign["threads"] = 4;
  campaign["thread_utilization"] = 0.9;
  campaign["worst_abs_error"] = 0.1;
  campaign["mean_abs_error"] = 0.1;
  Json& resilience = campaign["resilience"];
  resilience["attempts"] = 1;
  resilience["retries"] = 0;
  resilience["replayed"] = 0;
  resilience["quarantined"] = 0;
  resilience["deadline_failures"] = 0;
  resilience["backoff_s"] = 0.0;
  campaign["runs"].push_back(std::move(run));
  report["campaigns"].push_back(std::move(campaign));

  Json replay = Json::object();
  replay["name"] = "small_8pe";
  replay["ranks"] = 8;
  replay["makespan_s"] = 0.03;
  replay["time_per_iteration_s"] = 0.015;
  replay["events"] = 1234;
  replay["max_queue_depth"] = 9;
  Json& phases = replay["phases"];
  phases["compute_s"] = 0.1;
  phases["p2p_s"] = 0.01;
  phases["collective_s"] = 0.05;
  Json& blocked = replay["blocked"];
  blocked["send_wait_s"] = 0.0;
  blocked["recv_wait_s"] = 0.004;
  blocked["collective_wait_s"] = 0.03;
  blocked["collective_cost_s"] = 0.02;
  Json& traffic = replay["traffic"];
  traffic["p2p_messages"] = 640;
  traffic["p2p_bytes"] = 1.5e6;
  traffic["allreduces"] = 48;
  traffic["broadcasts"] = 16;
  traffic["gathers"] = 8;
  report["replays"].push_back(std::move(replay));

  Json& metrics = report["metrics"];
  Json counter = Json::object();
  counter["kind"] = "counter";
  counter["count"] = 3;
  metrics["sim.runs"] = std::move(counter);
  Json timer = Json::object();
  timer["kind"] = "timer";
  timer["count"] = 2;
  timer["total_seconds"] = 0.5;
  metrics["partition.fm.seconds"] = std::move(timer);
  return report;
}

/// Mutable access to the first element of an array-valued Json. The
/// public API only exposes const element access (reports are built by
/// push_back and never edited); tests mutate in place to corrupt
/// documents.
Json& first_element(Json& array_owner) {
  return const_cast<Json&>(array_owner.as_array().front());
}

/// True when some violation message contains `needle`.
bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  for (const std::string& violation : violations) {
    if (violation.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(BenchSchema, MinimalReportIsValid) {
  const std::vector<std::string> violations =
      validate_bench_report(minimal_valid_report());
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(BenchSchema, NonObjectTopLevelFails) {
  EXPECT_TRUE(mentions(validate_bench_report(Json(1.0)),
                       "top level must be an object"));
}

TEST(BenchSchema, WrongSchemaIdIsReported) {
  Json report = minimal_valid_report();
  report["schema"] = "krak-bench-v999";
  EXPECT_TRUE(mentions(validate_bench_report(report), "$.schema"));
}

TEST(BenchSchema, MissingEnvironmentKeyIsReported) {
  Json report = minimal_valid_report();
  Json env = Json::object();
  env["git_sha"] = "deadbeef";
  env["build_type"] = "Release";
  env["compiler"] = "gcc 13";  // hardware_concurrency omitted
  report["environment"] = std::move(env);
  EXPECT_TRUE(mentions(validate_bench_report(report), "hardware_concurrency"));
}

TEST(BenchSchema, EmptyCampaignsArrayIsReported) {
  Json report = minimal_valid_report();
  report["campaigns"] = Json::array();
  EXPECT_TRUE(mentions(validate_bench_report(report), "$.campaigns"));
}

TEST(BenchSchema, UtilizationAboveOneIsOutOfRange) {
  Json report = minimal_valid_report();
  first_element(report["campaigns"])["thread_utilization"] = 1.5;
  EXPECT_TRUE(
      mentions(validate_bench_report(report), "thread_utilization"));
}

TEST(BenchSchema, NegativeBlockedTimeIsOutOfRange) {
  Json report = minimal_valid_report();
  first_element(report["replays"])["blocked"]["recv_wait_s"] = -0.5;
  EXPECT_TRUE(mentions(validate_bench_report(report), "recv_wait_s"));
}

TEST(BenchSchema, UnknownMetricKindIsReported) {
  Json report = minimal_valid_report();
  Json bad = Json::object();
  bad["kind"] = "histogram";
  report["metrics"]["weird"] = std::move(bad);
  EXPECT_TRUE(mentions(validate_bench_report(report), "unknown metric kind"));
}

TEST(BenchSchema, ViolationPathsNameTheOffendingElement) {
  Json report = minimal_valid_report();
  Json& campaign = first_element(report["campaigns"]);
  first_element(campaign["runs"])["pes"] = 0;  // below minimum of 1
  EXPECT_TRUE(mentions(validate_bench_report(report),
                       "$.campaigns[0].runs[0].pes"));
}

/// A well-formed campaign "failures" entry (graceful degradation).
Json campaign_failure_entry() {
  Json failure = Json::object();
  failure["run_index"] = 1;
  failure["scenario"] = "small/16pe/general-homogeneous";
  failure["error"] = "simulation deadlock: rank 0 blocked at op 3";
  failure["attempts"] = 1;
  failure["class"] = "deterministic";
  failure["quarantined"] = false;
  Json cause = Json::object();
  cause["kind"] = "lost-message";
  cause["rank"] = 0;
  cause["op_index"] = 3;
  cause["detail"] = "waiting for a message lost by the fault plan";
  failure["sim_failure"] = std::move(cause);
  return failure;
}

TEST(BenchSchema, CampaignFailuresSectionValidates) {
  Json report = minimal_valid_report();
  first_element(report["campaigns"])["failures"].push_back(
      campaign_failure_entry());
  const std::vector<std::string> violations =
      validate_bench_report(report);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(BenchSchema, AllScenariosFailedAllowsZeroRuns) {
  // A campaign where every scenario failed has no measured runs; that is
  // legal only because the failures section explains the gap.
  Json report = minimal_valid_report();
  Json& campaign = first_element(report["campaigns"]);
  campaign["runs"] = Json::array();
  campaign["failures"].push_back(campaign_failure_entry());
  EXPECT_TRUE(validate_bench_report(report).empty());
}

TEST(BenchSchema, ZeroRunsWithoutFailuresIsViolation) {
  Json report = minimal_valid_report();
  first_element(report["campaigns"])["runs"] = Json::array();
  EXPECT_TRUE(mentions(validate_bench_report(report), "runs"));
}

TEST(BenchSchema, FailureMissingScenarioIsReported) {
  Json report = minimal_valid_report();
  Json failure = Json::object();
  failure["run_index"] = 1;  // scenario and error omitted
  first_element(report["campaigns"])["failures"].push_back(std::move(failure));
  EXPECT_TRUE(mentions(validate_bench_report(report), "scenario"));
}

TEST(BenchSchema, NonObjectSimFailureIsReported) {
  Json report = minimal_valid_report();
  Json failure = campaign_failure_entry();
  failure["sim_failure"] = "deadlock";  // must be a structured object
  first_element(report["campaigns"])["failures"].push_back(std::move(failure));
  EXPECT_TRUE(mentions(validate_bench_report(report), "sim_failure"));
}

/// `object` without its member `key`.
Json without(const Json& object, const std::string& key) {
  Json out = Json::object();
  for (const auto& [name, value] : object.as_object()) {
    if (name != key) out[name] = value;
  }
  return out;
}

/// The minimal report plus the optional sections that carry required
/// keys of their own: one campaign failure and one parallel replay.
Json report_with_every_section() {
  Json report = minimal_valid_report();
  first_element(report["campaigns"])["failures"].push_back(
      campaign_failure_entry());
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 8;
  parallel["serial_wall_s"] = 2.0;
  parallel["parallel_wall_s"] = 0.5;
  parallel["speedup_vs_oracle"] = 4.0;
  return report;
}

Json& first_campaign(Json& report) {
  return first_element(report["campaigns"]);
}
Json& first_failure(Json& report) {
  return first_element(first_campaign(report)["failures"]);
}
Json& first_parallel(Json& report) {
  return first_element(report["replays"])["parallel"];
}

TEST(BenchSchema, KeysTheWriterAlwaysEmitsAreRequired) {
  struct RequiredKey {
    const char* key;
    Json& (*owner)(Json& report);
    const char* path;
  };
  const RequiredKey cases[] = {
      {"speedup_vs_oracle", first_parallel, "$.replays[0].parallel"},
      {"resilience", first_campaign, "$.campaigns[0]"},
      {"attempts", first_failure, "$.campaigns[0].failures[0]"},
      {"class", first_failure, "$.campaigns[0].failures[0]"},
      {"quarantined", first_failure, "$.campaigns[0].failures[0]"},
  };
  ASSERT_TRUE(validate_bench_report(report_with_every_section()).empty());
  for (const RequiredKey& required : cases) {
    Json report = report_with_every_section();
    Json& owner = required.owner(report);
    owner = without(owner, required.key);
    EXPECT_TRUE(mentions(validate_bench_report(report),
                         std::string(required.path) +
                             ": missing required key \"" + required.key +
                             "\""))
        << required.key;
  }
}

TEST(BenchSchema, ReplayFaultSectionValidates) {
  Json report = minimal_valid_report();
  Json& fault = first_element(report["replays"])["fault"];
  fault["injections"] = 12;
  fault["retransmits"] = 3;
  fault["messages_lost"] = 1;
  fault["fault_delay_s"] = 0.05;
  fault["recovery_s"] = 0.0;
  fault["failures"] = Json::array();
  const std::vector<std::string> violations =
      validate_bench_report(report);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(BenchSchema, ParallelScalingSectionValidates) {
  Json report = minimal_valid_report();
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 8;
  parallel["serial_wall_s"] = 2.0;
  parallel["parallel_wall_s"] = 0.5;
  parallel["speedup_vs_oracle"] = 4.0;
  const std::vector<std::string> violations =
      validate_bench_report(report);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(BenchSchema, ParallelScalingAmdahlFieldsValidate) {
  Json report = minimal_valid_report();
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 8;
  parallel["serial_wall_s"] = 2.0;
  parallel["parallel_wall_s"] = 0.5;
  parallel["speedup_vs_oracle"] = 4.0;
  parallel["coordinator_serial_fraction"] = 0.07;
  const std::vector<std::string> violations =
      validate_bench_report(report);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

TEST(BenchSchema, CoordinatorSerialFractionAboveOneIsOutOfRange) {
  Json report = minimal_valid_report();
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 8;
  parallel["serial_wall_s"] = 2.0;
  parallel["parallel_wall_s"] = 0.5;
  parallel["speedup_vs_oracle"] = 4.0;
  // A fraction of the parallel wall can never exceed 1.
  parallel["coordinator_serial_fraction"] = 1.5;
  EXPECT_TRUE(
      mentions(validate_bench_report(report), "coordinator_serial_fraction"));
}

TEST(BenchSchema, ParallelScalingZeroThreadsIsOutOfRange) {
  Json report = minimal_valid_report();
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 0;  // the oracle is threads = 1, never 0
  parallel["serial_wall_s"] = 2.0;
  parallel["parallel_wall_s"] = 0.5;
  parallel["speedup_vs_oracle"] = 4.0;
  EXPECT_TRUE(mentions(validate_bench_report(report), "threads"));
}

TEST(BenchSchema, ParallelScalingMissingWallIsReported) {
  Json report = minimal_valid_report();
  Json& parallel = first_element(report["replays"])["parallel"];
  parallel["threads"] = 2;
  parallel["serial_wall_s"] = 2.0;
  parallel["speedup_vs_oracle"] = 1.0;  // parallel_wall_s omitted
  EXPECT_TRUE(mentions(validate_bench_report(report), "parallel_wall_s"));
}

TEST(BenchSchema, NegativeFaultDelayIsOutOfRange) {
  Json report = minimal_valid_report();
  Json& fault = first_element(report["replays"])["fault"];
  fault["injections"] = 1;
  fault["retransmits"] = 0;
  fault["messages_lost"] = 0;
  fault["fault_delay_s"] = -0.5;
  fault["recovery_s"] = 0.0;
  fault["failures"] = Json::array();
  EXPECT_TRUE(mentions(validate_bench_report(report), "fault_delay_s"));
}

}  // namespace
}  // namespace krak::obs
