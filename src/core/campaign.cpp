#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <new>
#include <set>
#include <sstream>
#include <thread>

#include "core/text_format.hpp"
#include "fault/plan.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace krak::core {

std::string campaign_run_name(const CampaignRun& run) {
  std::string flavor;
  switch (run.flavor) {
    case CampaignRun::Flavor::kMeshSpecific:
      flavor = "mesh-specific";
      break;
    case CampaignRun::Flavor::kGeneralHomogeneous:
      flavor = "general-homogeneous";
      break;
  }
  return std::string(mesh::deck_size_name(run.deck)) + "/" +
         std::to_string(run.pes) + "pe/" + flavor;
}

std::uint64_t scenario_fingerprint(std::string_view label,
                                   const CampaignRun& run,
                                   const ValidationConfig& config) {
  Fnv1a64 hash;
  const auto add_string = [&hash](std::string_view text) {
    // Length-prefixed so "ab"+"c" can never alias "a"+"bc".
    const std::uint64_t size = text.size();
    hash.add(&size, sizeof(size)).add(text);
  };
  add_string(label);
  add_string(mesh::deck_size_name(run.deck));
  hash.add(&run.pes, sizeof(run.pes));
  const std::int32_t flavor = static_cast<std::int32_t>(run.flavor);
  hash.add(&flavor, sizeof(flavor));
  hash.add(&config.partition_seed, sizeof(config.partition_seed));
  hash.add(&config.noise_seed, sizeof(config.noise_seed));
  hash.add(&config.iterations, sizeof(config.iterations));
  // The effective fault plan: the per-run override when present,
  // hashed through its canonical text serialization.
  const fault::FaultPlan& faults =
      run.faults.empty() ? config.faults : run.faults;
  std::ostringstream plan_text;
  fault::write_fault_plan(plan_text, faults);
  add_string(plan_text.str());
  return hash.value();
}

namespace {

/// Retry backoff growth, cap and jitter seed (docs/RESILIENCE.md,
/// "Retry, backoff, and quarantine").
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffMaxSeconds = 5.0;
constexpr std::uint64_t kBackoffSeed = 0x6b72616bu;

/// Classify a scenario failure for the retry policy. Transient causes
/// — blown wall budgets, explicit cancellation, allocation pressure —
/// depend on machine state and deserve another attempt; deterministic
/// ones — watchdog diagnoses (same seed, same hang), precondition and
/// invariant violations — will recur bit-identically and count toward
/// quarantine. Unknown exception types get the benefit of the doubt.
bool is_transient_failure(const std::exception& error) {
  if (dynamic_cast<const util::CancelledError*>(&error) != nullptr) {
    return true;
  }
  if (const auto* sim_error =
          dynamic_cast<const sim::SimFailureError*>(&error)) {
    return sim_error->failure().kind == sim::SimFailure::Kind::kDeadline;
  }
  if (dynamic_cast<const util::KrakError*>(&error) != nullptr) return false;
  return true;  // bad_alloc, system_error, anything else unclassified
}

bool is_deadline_failure(const std::exception& error) {
  if (dynamic_cast<const util::CancelledError*>(&error) != nullptr) {
    return true;
  }
  const auto* sim_error = dynamic_cast<const sim::SimFailureError*>(&error);
  return sim_error != nullptr &&
         sim_error->failure().kind == sim::SimFailure::Kind::kDeadline;
}

}  // namespace

CampaignSummary run_validation_campaign(
    const KrakModel& model, const simapp::ComputationCostEngine& engine,
    const std::vector<CampaignRun>& runs, const ValidationConfig& config,
    std::size_t threads, const CampaignPolicy& policy) {
  util::check(!runs.empty(), "campaign needs at least one run");
  CampaignSummary summary;
  summary.points.resize(runs.size());
  summary.run_wall_seconds.assign(runs.size(), 0.0);

  // Campaign-wide cancellation: the policy's campaign deadline, chained
  // to any caller-provided token so either source can trip it. Without
  // either, no token is installed anywhere and every run takes the
  // checkpoint-free (bit-identical, pre-resilience) code paths.
  util::CancellationToken campaign_token;
  campaign_token.set_parent(config.cancel);
  if (policy.campaign_deadline_seconds > 0.0) {
    campaign_token.arm_deadline(policy.campaign_deadline_seconds);
  }
  const bool campaign_guarded =
      policy.campaign_deadline_seconds > 0.0 || config.cancel != nullptr;
  const bool scenario_guarded =
      campaign_guarded || policy.scenario_deadline_seconds > 0.0;

  const std::uint32_t max_attempts = std::max<std::uint32_t>(
      1, policy.max_attempts);
  const std::uint32_t quarantine_after = std::max<std::uint32_t>(
      1, policy.quarantine_after);

  std::mutex summary_mutex;  // guards failures + resilience counters
  const auto run_one = [&](std::size_t i) {
    const util::Stopwatch run_watch;
    const CampaignRun& run = runs[i];
    // One scenario failing must not take down the sweep: record the
    // cause (structured when the simulator diagnosed it) and move on.
    // The catches live inside the worker lambda because the pool
    // propagates uncaught worker exceptions to the caller; only a
    // journal append failing escapes — a campaign that cannot keep its
    // write-ahead promises must stop, not silently lose durability.
    const std::uint64_t fingerprint =
        policy.journal != nullptr
            ? scenario_fingerprint(policy.label, run, config)
            : 0;
    CampaignJournal::History history;
    if (policy.journal != nullptr) {
      history = policy.journal->history(fingerprint);
    }

    CampaignFailure failure;
    failure.run_index = i;
    failure.scenario = campaign_run_name(run);
    bool failed = false;

    if (history.done) {
      // Journal replay: bit-identical to the original measurement (the
      // journal stores the doubles' IEEE bit patterns), no re-run.
      summary.points[i] = history.point;
      const std::lock_guard<std::mutex> lock(summary_mutex);
      ++summary.resilience.replayed;
    } else if (history.quarantined) {
      // Poison recorded by an earlier process: never re-run.
      failed = true;
      failure.error = history.last_error.empty() ? "quarantined by journal"
                                                 : history.last_error;
      failure.attempts = history.attempts;
      failure.quarantined = true;
      const std::lock_guard<std::mutex> lock(summary_mutex);
      ++summary.resilience.quarantined;
    } else if (history.deterministic_failures >= quarantine_after) {
      // The threshold was crossed but the quarantine record never
      // landed (crash between the two appends): finish the transition.
      failed = true;
      failure.error = history.last_error;
      failure.attempts = history.attempts;
      failure.quarantined = true;
      policy.journal->record_quarantined(fingerprint, history.attempts,
                                         history.last_error);
      const std::lock_guard<std::mutex> lock(summary_mutex);
      ++summary.resilience.quarantined;
    } else if (history.failures() >= max_attempts) {
      // Budget already exhausted by earlier processes: report the last
      // recorded cause instead of burning more attempts.
      failed = true;
      failure.error = history.last_error;
      failure.attempts = history.attempts;
      failure.transient = history.last_transient;
    } else {
      std::uint32_t attempt = history.attempts;
      std::uint32_t failures_seen = history.failures();
      std::uint32_t deterministic_seen = history.deterministic_failures;
      // Jitter stream: deterministic per scenario (a fixed seed mixed
      // with the fingerprint and run index), decorrelated across
      // scenarios so a sweep of retries does not thunder in lockstep.
      util::Rng backoff_rng(kBackoffSeed ^ fingerprint ^
                            (0x9e3779b97f4a7c15ull *
                             static_cast<std::uint64_t>(i + 1)));
      bool first_local_attempt = true;
      while (true) {
        ++attempt;
        if (policy.journal != nullptr) {
          policy.journal->record_running(fingerprint, attempt);
        }
        {
          const std::lock_guard<std::mutex> lock(summary_mutex);
          ++summary.resilience.attempts;
          if (!first_local_attempt) ++summary.resilience.retries;
        }
        first_local_attempt = false;

        util::CancellationToken scenario_token;
        scenario_token.set_parent(campaign_guarded ? &campaign_token
                                                   : nullptr);
        if (policy.scenario_deadline_seconds > 0.0) {
          scenario_token.arm_deadline(policy.scenario_deadline_seconds);
        }
        ValidationConfig run_config = config;
        if (!run.faults.empty()) run_config.faults = run.faults;
        run_config.cancel = scenario_guarded ? &scenario_token : nullptr;

        try {
          const mesh::InputDeck deck = mesh::make_standard_deck(run.deck);
          switch (run.flavor) {
            case CampaignRun::Flavor::kMeshSpecific:
              summary.points[i] = validate_mesh_specific(deck, run.pes, model,
                                                         engine, run_config);
              break;
            case CampaignRun::Flavor::kGeneralHomogeneous:
              summary.points[i] = validate_general(
                  deck, run.pes, model, GeneralModelMode::kHomogeneous, engine,
                  run_config);
              break;
          }
          if (policy.journal != nullptr) {
            policy.journal->record_done(fingerprint, attempt,
                                        summary.points[i]);
          }
          failed = false;
          break;
        } catch (const std::exception& error) {
          const bool transient = is_transient_failure(error);
          failed = true;
          failure.error = error.what();
          failure.attempts = attempt;
          failure.transient = transient;
          failure.has_sim_failure = false;
          if (const auto* sim_error =
                  dynamic_cast<const sim::SimFailureError*>(&error)) {
            failure.has_sim_failure = true;
            failure.sim_failure = sim_error->failure();
          }
          if (is_deadline_failure(error)) {
            const std::lock_guard<std::mutex> lock(summary_mutex);
            ++summary.resilience.deadline_failures;
          }
          ++failures_seen;
          if (!transient) ++deterministic_seen;
          if (policy.journal != nullptr) {
            policy.journal->record_failed(fingerprint, attempt, transient,
                                          failure.error);
          }
          if (!transient && deterministic_seen >= quarantine_after) {
            failure.quarantined = true;
            if (policy.journal != nullptr) {
              policy.journal->record_quarantined(fingerprint, attempt,
                                                 failure.error);
            }
            const std::lock_guard<std::mutex> lock(summary_mutex);
            ++summary.resilience.quarantined;
            break;
          }
          if (failures_seen >= max_attempts) break;
          // A blown campaign budget leaves nothing to retry into.
          if (campaign_guarded && campaign_token.expired()) break;
          // Bounded deterministic exponential backoff before the retry.
          double delay = policy.backoff_initial_seconds;
          if (delay > 0.0) {
            delay *= std::pow(kBackoffMultiplier,
                              static_cast<double>(failures_seen - 1));
            delay = std::min(delay, kBackoffMaxSeconds);
            delay *= 0.5 + 0.5 * backoff_rng.next_double();
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
            const std::lock_guard<std::mutex> lock(summary_mutex);
            summary.resilience.backoff_seconds += delay;
          }
        }
      }
    }

    if (failed) {
      const std::lock_guard<std::mutex> lock(summary_mutex);
      summary.failures.push_back(std::move(failure));
    }
    summary.run_wall_seconds[i] = run_watch.seconds();
  };

  const util::Stopwatch campaign_watch;
  util::ThreadPool pool(threads);
  summary.threads_used = std::min(runs.size(), pool.thread_count());
  // Grain 1: each run is seconds of work, so one run is the unit of
  // dynamic load balancing and the per-chunk dispatch cost is noise.
  pool.parallel_for_chunked(
      runs.size(), 1, [&run_one](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) run_one(i);
      });
  summary.wall_seconds = campaign_watch.seconds();
  std::sort(summary.failures.begin(), summary.failures.end(),
            [](const CampaignFailure& a, const CampaignFailure& b) {
              return a.run_index < b.run_index;
            });

  double busy = 0.0;
  for (const double run_wall : summary.run_wall_seconds) busy += run_wall;
  if (summary.wall_seconds > 0.0 && summary.threads_used > 0) {
    summary.thread_utilization =
        std::min(1.0, busy / (summary.wall_seconds *
                              static_cast<double>(summary.threads_used)));
  }

  std::set<std::size_t> failed;
  for (const CampaignFailure& failure : summary.failures) {
    failed.insert(failure.run_index);
  }
  double sum = 0.0;
  std::size_t measured = 0;
  for (std::size_t i = 0; i < summary.points.size(); ++i) {
    if (failed.count(i) != 0) continue;  // placeholder, no measurement
    const double error = std::abs(summary.points[i].error());
    summary.worst_abs_error = std::max(summary.worst_abs_error, error);
    sum += error;
    ++measured;
  }
  if (measured > 0) sum /= static_cast<double>(measured);
  summary.mean_abs_error = sum;
  return summary;
}

std::vector<CampaignRun> table5_runs() {
  std::vector<CampaignRun> runs;
  for (mesh::DeckSize deck : {mesh::DeckSize::kSmall, mesh::DeckSize::kMedium}) {
    for (std::int32_t pes : {16, 64, 128}) {
      CampaignRun run;
      run.deck = deck;
      run.pes = pes;
      run.flavor = CampaignRun::Flavor::kMeshSpecific;
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

std::vector<CampaignRun> table6_runs() {
  std::vector<CampaignRun> runs;
  for (mesh::DeckSize deck : {mesh::DeckSize::kMedium, mesh::DeckSize::kLarge}) {
    for (std::int32_t pes : {128, 256, 512}) {
      CampaignRun run;
      run.deck = deck;
      run.pes = pes;
      run.flavor = CampaignRun::Flavor::kGeneralHomogeneous;
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

}  // namespace krak::core
