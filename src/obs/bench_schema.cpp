#include "obs/bench_schema.hpp"

namespace krak::obs {

namespace {

/// Collects violations with dotted-path context ("campaigns[2].runs[0]").
class SchemaChecker {
 public:
  explicit SchemaChecker(std::vector<std::string>& out) : out_(out) {}

  void fail(const std::string& path, const std::string& what) {
    out_.push_back(path + ": " + what);
  }

  /// Each require_* returns the typed member, or nullptr after recording
  /// a violation, so callers can keep scanning siblings.
  const Json* require(const Json& parent, const std::string& path,
                      const std::string& key) {
    const Json* member = parent.find(key);
    if (member == nullptr) fail(path, "missing required key \"" + key + "\"");
    return member;
  }

  const std::string* require_string(const Json& parent,
                                    const std::string& path,
                                    const std::string& key,
                                    bool non_empty = true) {
    const Json* member = require(parent, path, key);
    if (member == nullptr) return nullptr;
    if (!member->is_string()) {
      fail(path + "." + key, "must be a string");
      return nullptr;
    }
    if (non_empty && member->as_string().empty()) {
      fail(path + "." + key, "must be non-empty");
      return nullptr;
    }
    return &member->as_string();
  }

  bool require_bool(const Json& parent, const std::string& path,
                    const std::string& key) {
    const Json* member = require(parent, path, key);
    if (member == nullptr) return false;
    if (!member->is_bool()) {
      fail(path + "." + key, "must be a boolean");
      return false;
    }
    return true;
  }

  /// Number constrained to [min, max]; returns 0.0 on violation.
  double require_number(const Json& parent, const std::string& path,
                        const std::string& key, double min, double max) {
    const Json* member = require(parent, path, key);
    if (member == nullptr) return 0.0;
    if (!member->is_number()) {
      fail(path + "." + key, "must be a number");
      return 0.0;
    }
    const double value = member->as_double();
    if (value < min || value > max) {
      fail(path + "." + key,
           "out of range [" + std::to_string(min) + ", " +
               std::to_string(max) + "]: " + std::to_string(value));
    }
    return value;
  }

  const Json* require_object(const Json& parent, const std::string& path,
                             const std::string& key) {
    const Json* member = require(parent, path, key);
    if (member == nullptr) return nullptr;
    if (!member->is_object()) {
      fail(path + "." + key, "must be an object");
      return nullptr;
    }
    return member;
  }

  const Json* require_array(const Json& parent, const std::string& path,
                            const std::string& key, std::size_t min_size) {
    const Json* member = require(parent, path, key);
    if (member == nullptr) return nullptr;
    if (!member->is_array()) {
      fail(path + "." + key, "must be an array");
      return nullptr;
    }
    if (member->size() < min_size) {
      fail(path + "." + key,
           "must have at least " + std::to_string(min_size) + " element(s)");
    }
    return member;
  }

 private:
  std::vector<std::string>& out_;
};

constexpr double kHuge = 1e30;

void check_run(SchemaChecker& ck, const Json& run, const std::string& path) {
  if (!run.is_object()) {
    ck.fail(path, "must be an object");
    return;
  }
  ck.require_string(run, path, "problem");
  ck.require_number(run, path, "pes", 1.0, kHuge);
  ck.require_number(run, path, "measured_s", 0.0, kHuge);
  ck.require_number(run, path, "predicted_s", 0.0, kHuge);
  ck.require_number(run, path, "error", -kHuge, kHuge);
  ck.require_number(run, path, "wall_seconds", 0.0, kHuge);
}

/// "failures" entry of a campaign: a scenario that produced a recorded
/// error instead of a measurement (graceful degradation).
void check_campaign_failure(SchemaChecker& ck, const Json& failure,
                            const std::string& path) {
  if (!failure.is_object()) {
    ck.fail(path, "must be an object");
    return;
  }
  ck.require_number(failure, path, "run_index", 0.0, kHuge);
  ck.require_string(failure, path, "scenario");
  ck.require_string(failure, path, "error");
  // The retry budget charged (0: a quarantine skip recorded without
  // re-running), the failure class, and whether the scenario was
  // quarantined as poison.
  ck.require_number(failure, path, "attempts", 0.0, kHuge);
  if (const std::string* klass = ck.require_string(failure, path, "class")) {
    if (*klass != "transient" && *klass != "deterministic") {
      ck.fail(path + ".class",
              "must be \"transient\" or \"deterministic\"");
    }
  }
  ck.require_bool(failure, path, "quarantined");
  // Optional structured simulator diagnosis.
  if (const Json* cause = failure.find("sim_failure")) {
    if (!cause->is_object()) {
      ck.fail(path + ".sim_failure", "must be an object");
      return;
    }
    const std::string sub = path + ".sim_failure";
    ck.require_string(*cause, sub, "kind");
    // rank -1: a run-level diagnosis (e.g. event-limit), not a rank's.
    ck.require_number(*cause, sub, "rank", -1.0, kHuge);
    ck.require_number(*cause, sub, "op_index", -1.0, kHuge);
    ck.require_string(*cause, sub, "detail");
  }
}

void check_campaign(SchemaChecker& ck, const Json& campaign,
                    const std::string& path) {
  if (!campaign.is_object()) {
    ck.fail(path, "must be an object");
    return;
  }
  ck.require_string(campaign, path, "name");
  ck.require_number(campaign, path, "wall_seconds", 0.0, kHuge);
  ck.require_number(campaign, path, "threads", 1.0, kHuge);
  // A tiny tolerance: utilization is sum(run)/ (wall * threads) and the
  // run clocks are sampled inside the pool, so rounding can nudge it
  // just above 1.
  ck.require_number(campaign, path, "thread_utilization", 0.0, 1.01);
  ck.require_number(campaign, path, "worst_abs_error", 0.0, kHuge);
  ck.require_number(campaign, path, "mean_abs_error", 0.0, kHuge);
  // Resilience accounting: attempts, retries, journal replays,
  // quarantines.
  if (const Json* resilience =
          ck.require_object(campaign, path, "resilience")) {
    const std::string sub = path + ".resilience";
    ck.require_number(*resilience, sub, "attempts", 0.0, kHuge);
    ck.require_number(*resilience, sub, "retries", 0.0, kHuge);
    ck.require_number(*resilience, sub, "replayed", 0.0, kHuge);
    ck.require_number(*resilience, sub, "quarantined", 0.0, kHuge);
    ck.require_number(*resilience, sub, "deadline_failures", 0.0, kHuge);
    ck.require_number(*resilience, sub, "backoff_s", 0.0, kHuge);
  }
  // "failures" is optional (absent from clean reports); when present it
  // must be well-formed, and a campaign where every scenario failed may
  // legitimately have zero measured runs.
  std::size_t failure_count = 0;
  if (const Json* failures = campaign.find("failures")) {
    if (!failures->is_array()) {
      ck.fail(path + ".failures", "must be an array");
    } else {
      failure_count = failures->size();
      for (std::size_t i = 0; i < failures->as_array().size(); ++i) {
        check_campaign_failure(ck, failures->as_array()[i],
                               path + ".failures[" + std::to_string(i) + "]");
      }
    }
  }
  const std::size_t min_runs = failure_count > 0 ? 0 : 1;
  if (const Json* runs = ck.require_array(campaign, path, "runs", min_runs)) {
    for (std::size_t i = 0; i < runs->as_array().size(); ++i) {
      check_run(ck, runs->as_array()[i],
                path + ".runs[" + std::to_string(i) + "]");
    }
  }
}

void check_replay(SchemaChecker& ck, const Json& replay,
                  const std::string& path) {
  if (!replay.is_object()) {
    ck.fail(path, "must be an object");
    return;
  }
  ck.require_string(replay, path, "name");
  ck.require_number(replay, path, "ranks", 1.0, kHuge);
  ck.require_number(replay, path, "makespan_s", 0.0, kHuge);
  ck.require_number(replay, path, "time_per_iteration_s", 0.0, kHuge);
  ck.require_number(replay, path, "events", 1.0, kHuge);
  ck.require_number(replay, path, "max_queue_depth", 1.0, kHuge);
  if (const Json* phases = ck.require_object(replay, path, "phases")) {
    const std::string sub = path + ".phases";
    ck.require_number(*phases, sub, "compute_s", 0.0, kHuge);
    ck.require_number(*phases, sub, "p2p_s", 0.0, kHuge);
    ck.require_number(*phases, sub, "collective_s", 0.0, kHuge);
  }
  if (const Json* blocked = ck.require_object(replay, path, "blocked")) {
    const std::string sub = path + ".blocked";
    ck.require_number(*blocked, sub, "send_wait_s", 0.0, kHuge);
    ck.require_number(*blocked, sub, "recv_wait_s", 0.0, kHuge);
    ck.require_number(*blocked, sub, "collective_wait_s", 0.0, kHuge);
    ck.require_number(*blocked, sub, "collective_cost_s", 0.0, kHuge);
  }
  if (const Json* traffic = ck.require_object(replay, path, "traffic")) {
    const std::string sub = path + ".traffic";
    ck.require_number(*traffic, sub, "p2p_messages", 0.0, kHuge);
    ck.require_number(*traffic, sub, "p2p_bytes", 0.0, kHuge);
    ck.require_number(*traffic, sub, "allreduces", 0.0, kHuge);
    ck.require_number(*traffic, sub, "broadcasts", 0.0, kHuge);
    ck.require_number(*traffic, sub, "gathers", 0.0, kHuge);
  }
  // Optional parallel-simulation scaling datapoint: wall clock of the
  // single-thread oracle vs. the conservative parallel engine over the
  // same scenario (absent from serial-only replays).
  if (const Json* parallel = replay.find("parallel")) {
    if (!parallel->is_object()) {
      ck.fail(path + ".parallel", "must be an object");
      return;
    }
    const std::string sub = path + ".parallel";
    ck.require_number(*parallel, sub, "threads", 1.0, kHuge);
    ck.require_number(*parallel, sub, "serial_wall_s", 0.0, kHuge);
    ck.require_number(*parallel, sub, "parallel_wall_s", 0.0, kHuge);
    ck.require_number(*parallel, sub, "speedup_vs_oracle", 0.0, kHuge);
    // The replay's Amdahl serial fraction, a proper fraction by
    // construction; optional because the checked-in quick baseline was
    // recorded before the writer emitted it.
    if (parallel->find("coordinator_serial_fraction") != nullptr) {
      ck.require_number(*parallel, sub, "coordinator_serial_fraction", 0.0,
                        1.0);
    }
  }
  // Optional fault-injection accounting, emitted only when a fault plan
  // was active.
  if (const Json* fault = replay.find("fault")) {
    if (!fault->is_object()) {
      ck.fail(path + ".fault", "must be an object");
      return;
    }
    const std::string sub = path + ".fault";
    ck.require_number(*fault, sub, "injections", 0.0, kHuge);
    ck.require_number(*fault, sub, "retransmits", 0.0, kHuge);
    ck.require_number(*fault, sub, "messages_lost", 0.0, kHuge);
    ck.require_number(*fault, sub, "fault_delay_s", 0.0, kHuge);
    ck.require_number(*fault, sub, "recovery_s", 0.0, kHuge);
    if (const Json* failures = ck.require_array(*fault, sub, "failures", 0)) {
      for (std::size_t i = 0; i < failures->as_array().size(); ++i) {
        const Json& entry = failures->as_array()[i];
        const std::string entry_path =
            sub + ".failures[" + std::to_string(i) + "]";
        if (!entry.is_object()) {
          ck.fail(entry_path, "must be an object");
          continue;
        }
        ck.require_string(entry, entry_path, "kind");
        // rank -1: a run-level diagnosis (e.g. event-limit).
        ck.require_number(entry, entry_path, "rank", -1.0, kHuge);
        ck.require_number(entry, entry_path, "op_index", -1.0, kHuge);
        ck.require_string(entry, entry_path, "detail");
      }
    }
  }
}

void check_metric(SchemaChecker& ck, const Json& metric,
                  const std::string& path) {
  if (!metric.is_object()) {
    ck.fail(path, "must be an object");
    return;
  }
  const std::string* kind = ck.require_string(metric, path, "kind");
  if (kind == nullptr) return;
  if (*kind == "counter") {
    ck.require_number(metric, path, "count", 0.0, kHuge);
  } else if (*kind == "gauge") {
    ck.require_number(metric, path, "value", -kHuge, kHuge);
  } else if (*kind == "timer") {
    ck.require_number(metric, path, "count", 0.0, kHuge);
    ck.require_number(metric, path, "total_seconds", 0.0, kHuge);
  } else {
    ck.fail(path + ".kind", "unknown metric kind \"" + *kind + "\"");
  }
}

}  // namespace

std::vector<std::string> validate_bench_report(const Json& report) {
  std::vector<std::string> violations;
  SchemaChecker ck(violations);
  if (!report.is_object()) {
    ck.fail("$", "top level must be an object");
    return violations;
  }
  if (const std::string* schema = ck.require_string(report, "$", "schema")) {
    if (*schema != kBenchSchemaId) {
      ck.fail("$.schema", "expected \"" + std::string(kBenchSchemaId) +
                              "\", got \"" + *schema + "\"");
    }
  }
  ck.require_string(report, "$", "name");
  ck.require_bool(report, "$", "quick");
  if (const Json* env = ck.require_object(report, "$", "environment")) {
    ck.require_string(*env, "$.environment", "git_sha");
    ck.require_string(*env, "$.environment", "build_type");
    ck.require_string(*env, "$.environment", "compiler");
    ck.require_number(*env, "$.environment", "hardware_concurrency", 1.0,
                      kHuge);
  }
  if (const Json* campaigns = ck.require_array(report, "$", "campaigns", 1)) {
    for (std::size_t i = 0; i < campaigns->as_array().size(); ++i) {
      check_campaign(ck, campaigns->as_array()[i],
                     "$.campaigns[" + std::to_string(i) + "]");
    }
  }
  if (const Json* replays = ck.require_array(report, "$", "replays", 1)) {
    for (std::size_t i = 0; i < replays->as_array().size(); ++i) {
      check_replay(ck, replays->as_array()[i],
                   "$.replays[" + std::to_string(i) + "]");
    }
  }
  if (const Json* metrics = ck.require_object(report, "$", "metrics")) {
    for (const auto& [name, metric] : metrics->as_object()) {
      check_metric(ck, metric, "$.metrics[\"" + name + "\"]");
    }
  }
  return violations;
}

}  // namespace krak::obs
