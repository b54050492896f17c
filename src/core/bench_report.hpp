#pragma once

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "obs/bench_schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "simapp/simkrak.hpp"

namespace krak::core {

/// Build-environment stamp embedded in every BENCH_*.json so a
/// performance trajectory across PRs stays attributable.
struct BenchEnvironment {
  std::string git_sha = "unknown";
  std::string build_type = "unknown";
  std::string compiler = "unknown";
  std::int64_t hardware_concurrency = 1;
};

/// Fill from compiler macros, std::thread::hardware_concurrency, and —
/// for the git SHA — the KRAK_GIT_SHA environment variable (exported by
/// CI) falling back to the SHA the build stamped, with "-dirty" when a
/// tracked file differed from that commit (cmake/GitStamp.cmake).
[[nodiscard]] BenchEnvironment detect_bench_environment();

/// One validation campaign as a krak-bench-v2 "campaigns" entry.
[[nodiscard]] obs::Json campaign_to_json(const std::string& name,
                                         const CampaignSummary& summary);

/// One simulator replay as a krak-bench-v2 "replays" entry, carrying the
/// compute / p2p / collective decomposition and blocked-time split.
[[nodiscard]] obs::Json replay_to_json(const std::string& name,
                                       const simapp::SimKrakResult& result);

/// Attach the optional krak-bench-v2 "parallel" object to a replay
/// entry: the parallel-simulation scaling datapoint of the scenario —
/// wall clock of the single-thread oracle vs. the conservative parallel
/// engine at `threads` workers over the same (bit-identical) run, and
/// their ratio speedup_vs_oracle = serial_wall_s / parallel_wall_s (0
/// when the parallel wall is 0). `coordinator_s` is the parallel run's
/// serial coordinator wall (sim.parallel.coordinator_s); it yields
/// coordinator_serial_fraction = coordinator_s / parallel_wall_s, the
/// replay's Amdahl serial fraction.
void attach_parallel_scaling(obs::Json& replay, std::int32_t threads,
                             double serial_wall_s, double parallel_wall_s,
                             double coordinator_s = 0.0);

/// The perf-smoke regression gate behind krak_bench --compare: check
/// every campaign of `report` against the like-named campaign of
/// `baseline`. Returns human-readable failure messages; empty means
/// every campaign name matched in BOTH directions and no wall time
/// exceeded `factor` x its baseline. A campaign present on only one
/// side is a failure, not a silent pass: a renamed or dropped campaign
/// would otherwise disable the gate without anyone noticing. Both
/// documents must already be schema-valid (validate_bench_report).
[[nodiscard]] std::vector<std::string> compare_campaign_walls(
    const obs::Json& report, const obs::Json& baseline, double factor);

/// The replay half of the perf-smoke gate: check every replay of
/// `report` that carries a "parallel" scaling object against the
/// like-named replay of `baseline`, comparing parallel_wall_s (the
/// engine wall the scenario exists to bound). Matching is bidirectional
/// over the parallel-scaling replays only — serial replays carry no
/// gated wall — with the same no-silent-pass rule as the campaign
/// gate: a parallel replay present on only one side is a failure.
[[nodiscard]] std::vector<std::string> compare_replay_walls(
    const obs::Json& report, const obs::Json& baseline, double factor);

/// Assemble the full report document (see docs/OBSERVABILITY.md for the
/// schema). The caller validates with obs::validate_bench_report before
/// publishing.
[[nodiscard]] obs::Json make_bench_report(const std::string& name, bool quick,
                                          const BenchEnvironment& environment,
                                          std::vector<obs::Json> campaigns,
                                          std::vector<obs::Json> replays,
                                          const obs::Snapshot& metrics);

}  // namespace krak::core
