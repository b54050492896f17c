#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign_journal.hpp"
#include "core/validation.hpp"
#include "sim/simulator.hpp"

namespace krak::core {

/// One configuration of a validation campaign.
struct CampaignRun {
  /// Which model flavor to validate against the measurement.
  enum class Flavor { kMeshSpecific, kGeneralHomogeneous };

  CampaignRun() = default;
  CampaignRun(mesh::DeckSize deck_size, std::int32_t pe_count, Flavor f)
      : deck(deck_size), pes(pe_count), flavor(f) {}

  mesh::DeckSize deck = mesh::DeckSize::kMedium;
  std::int32_t pes = 0;
  Flavor flavor = Flavor::kGeneralHomogeneous;
  /// Per-run fault plan; when non-empty it replaces the campaign-wide
  /// ValidationConfig::faults for this scenario only.
  fault::FaultPlan faults;
};

/// Stable scenario label ("medium/128pe/mesh-specific") used in reports
/// and failure records.
[[nodiscard]] std::string campaign_run_name(const CampaignRun& run);

/// FNV-1a fingerprint identifying one scenario of one campaign across
/// process restarts: the campaign label, the run configuration (deck
/// size, PE count, flavor), every value-affecting ValidationConfig
/// field (seeds, iterations), and the effective fault plan. Thread
/// counts are excluded — they never change a measured value. This is
/// the key under which the campaign journal records scenario state.
[[nodiscard]] std::uint64_t scenario_fingerprint(std::string_view label,
                                                 const CampaignRun& run,
                                                 const ValidationConfig& config);

/// Resilience policy of a campaign (docs/RESILIENCE.md, "Resumable
/// campaigns"). The default policy is inert: one attempt, no journal,
/// no deadlines — a campaign run with it is bit-identical to one run
/// before the resilience layer existed.
struct CampaignPolicy {
  /// Attempts per scenario before its last failure is recorded;
  /// values < 1 behave as 1. Failed attempts recovered from the
  /// journal count against this budget; interrupted ones (a `running`
  /// record with no outcome — the process died mid-attempt) do not.
  std::uint32_t max_attempts = 1;
  /// Deterministic failures before a scenario is quarantined: recorded
  /// as poison in the journal and never re-run by resumed campaigns.
  std::uint32_t quarantine_after = 2;
  /// First retry delay; 0 retries immediately. Subsequent delays double
  /// up to 5 s, each scaled by a jitter factor in [0.5, 1) drawn from a
  /// util::Rng stream seeded from the scenario fingerprint —
  /// deterministic per scenario, decorrelated across scenarios.
  double backoff_initial_seconds = 0.0;
  /// Wall budget of one attempt; <= 0 is unlimited. Expiry surfaces as
  /// a structured kDeadline / CancelledError failure (classified
  /// transient), never a hang.
  double scenario_deadline_seconds = 0.0;
  /// Wall budget of the whole campaign; <= 0 is unlimited. Once blown,
  /// in-flight attempts fail at their next checkpoint and nothing is
  /// retried; unstarted scenarios fail fast.
  double campaign_deadline_seconds = 0.0;
  /// Write-ahead journal (not owned; null disables journaling). With a
  /// journal, scenarios it records as done are replayed bit-identically
  /// instead of re-run, quarantined ones are skipped, and every state
  /// change is written ahead of the action it describes.
  CampaignJournal* journal = nullptr;
  /// Campaign label mixed into scenario fingerprints so one journal
  /// can serve several campaigns (e.g. "table5" and "table6") without
  /// aliasing scenarios that share a configuration.
  std::string label;
};

/// One scenario of a campaign that did not produce a measurement. The
/// campaign keeps sweeping the remaining scenarios (graceful
/// degradation); the failure is recorded here instead of aborting.
struct CampaignFailure {
  std::size_t run_index = 0;  ///< index into the campaign's run list
  std::string scenario;       ///< campaign_run_name of the failed run
  std::string error;          ///< human-readable cause (exception text)
  /// Structured simulator diagnosis, present when the failure was a
  /// sim::SimFailureError (watchdog-detected hang / lost message /
  /// time-limit breach) rather than a generic error.
  bool has_sim_failure = false;
  sim::SimFailure sim_failure;
  /// Attempts charged against CampaignPolicy::max_attempts, journal
  /// history included (0 only for never-run quarantine skips).
  std::uint32_t attempts = 0;
  /// Classification of the last failure: transient causes (deadline,
  /// cancellation, allocation pressure) are retried; deterministic
  /// ones (watchdog diagnoses, invalid input) count toward quarantine.
  bool transient = false;
  /// The scenario was quarantined as poison — either this campaign
  /// crossed CampaignPolicy::quarantine_after, or the journal already
  /// had it quarantined and it was skipped without running.
  bool quarantined = false;
};

/// Aggregate outcome of a campaign.
struct CampaignSummary {
  /// One per run, in input order. Entries at indices named by
  /// `failures` are default-constructed placeholders, excluded from the
  /// error aggregates below.
  std::vector<ValidationPoint> points;
  std::vector<CampaignFailure> failures;  ///< sorted by run_index
  double worst_abs_error = 0.0;
  double mean_abs_error = 0.0;

  [[nodiscard]] bool degraded() const { return !failures.empty(); }

  /// Observability (docs/OBSERVABILITY.md): wall time of the whole
  /// campaign, wall time of each run (input order, measured inside the
  /// pool), the worker count used, and how well the pool was kept busy:
  /// sum(run_wall_seconds) / (wall_seconds * threads_used), in (0, 1].
  double wall_seconds = 0.0;
  std::vector<double> run_wall_seconds;
  std::size_t threads_used = 0;
  double thread_utilization = 0.0;

  /// What the resilience policy did (docs/RESILIENCE.md); all zero
  /// under the default inert CampaignPolicy.
  struct ResilienceStats {
    std::uint64_t attempts = 0;   ///< attempts executed by this process
    std::uint64_t retries = 0;    ///< attempts beyond a scenario's first
    std::uint64_t replayed = 0;   ///< scenarios restored from the journal
    std::uint64_t quarantined = 0;  ///< scenarios poisoned (skips included)
    std::uint64_t deadline_failures = 0;  ///< deadline/cancel expiries seen
    double backoff_seconds = 0.0;         ///< total retry sleep
  };
  ResilienceStats resilience;
};

/// Execute every run — partition, simulate, predict — in parallel over
/// a thread pool (each run is independent) and summarize. This is the
/// engine behind krak_repro's Tables 5/6 and Figure 5, exposed as API so
/// downstream users can validate their own recalibrations the same way.
/// `policy` adds the resilience layer — journaled resume, bounded
/// retry with backoff, poison-scenario quarantine, and wall deadlines;
/// its default is inert, leaving results bit-identical to the
/// policy-free engine.
[[nodiscard]] CampaignSummary run_validation_campaign(
    const KrakModel& model, const simapp::ComputationCostEngine& engine,
    const std::vector<CampaignRun>& runs, const ValidationConfig& config = {},
    std::size_t threads = 0 /* 0 = hardware concurrency */,
    const CampaignPolicy& policy = {});

/// The paper's Table 5 configuration set (small/medium x 16/64/128,
/// mesh-specific).
[[nodiscard]] std::vector<CampaignRun> table5_runs();

/// The paper's Table 6 configuration set (medium/large x 128/256/512,
/// general homogeneous).
[[nodiscard]] std::vector<CampaignRun> table6_runs();

}  // namespace krak::core
