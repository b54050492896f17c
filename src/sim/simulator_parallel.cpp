#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace krak::sim {

using util::require_internal;

namespace {

/// The canonical cross-shard delivery order: (arrival, sender,
/// send-ordinal). Workers sort their per-destination runs by it, so the
/// barrier, scheduling the runs in shard order, makes each destination
/// queue pop them in exactly the order a global sort would. A template
/// because the message type is private to Simulator.
template <typename Message>
[[nodiscard]] bool canonical_before(const Message& a, const Message& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  if (a.from != b.from) return a.from < b.from;
  return a.seq < b.seq;
}

}  // namespace

double Simulator::plan_lookahead() const {
  // A collective's tree cost is at least one flat message time, so
  // capping at the flat minimum puts every release at or past the
  // horizon of the window its last rank entered in.
  const double flat = network_.min_message_time();
  if (hierarchy_ == nullptr) return flat;
  // Shards align to node boundaries (plan_shards), so every cross-shard
  // payload pays at least the inter-node minimum.
  return std::min(flat, hierarchy_->inter_node().min_message_time());
}

/// Conservative parallel engine: ranks shard into contiguous blocks,
/// each with its own event queue, stepped in bounded time windows
/// (epochs). The window's horizon is the global minimum next-event time
/// plus the lookahead — the least time any cross-shard payload spends on
/// the wire — so every shard can safely fire everything below it without
/// hearing from its peers; with a degenerate lookahead each epoch fires
/// exactly the minimum timestamp (null-message-style progression).
///
/// The barrier itself is sharded so coordinator work scales with shard
/// coupling, not with rank count (docs/PERFORMANCE.md, "The epoch
/// coordinator"): workers sort their per-destination outbound runs and
/// fold their ranks' collective entries inside the window phase; the
/// coordinator's serial section only reduces O(shards) scalars and
/// folds the shards' collective states into the frontier; then every
/// destination shard in parallel schedules its inbound runs one after
/// another in shard order and applies the frontier's release, if it
/// completed, to its own ranks. Shards are contiguous rank ranges in
/// rank order, so run after sorted run is canonical (arrival, sender,
/// send-ordinal) order among equal arrival times, the only order a queue
/// tie-break reads — which keeps every simulated outcome bit-identical
/// to the serial oracle regardless of the thread count
/// (docs/PERFORMANCE.md, "Parallel simulation").
/// Every event fires at its true simulated time, so each shard replays
/// the oracle's event order over its own ranks — which is what lets
/// per-node order-sensitive state (the shared-NIC adapter availability)
/// live unsynchronized inside the shard that owns the node.
// krak: hot
SimResult Simulator::run_parallel(std::int32_t shard_count) {
  const std::int32_t n = ranks();
  require_internal(shard_count > 1 && shard_count <= n,
                   "parallel run needs 2..ranks shards");
  SimResult result;
  begin_run(result);

  // Contiguous block sharding over node-aligned units (shard_unit):
  // the first (units % shards) shards take one extra unit.
  const std::int32_t unit = shard_unit();
  const std::int32_t units = (n + unit - 1) / unit;
  std::vector<Shard> shards(static_cast<std::size_t>(shard_count));
  std::vector<std::int32_t> shard_of(static_cast<std::size_t>(n), 0);
  std::int32_t next_unit = 0;
  for (std::int32_t s = 0; s < shard_count; ++s) {
    Shard& shard = shards[static_cast<std::size_t>(s)];
    shard.shard_of = shard_of.data();
    shard.begin = std::min(n, next_unit * unit);
    next_unit += units / shard_count + (s < units % shard_count ? 1 : 0);
    shard.end = std::min(n, next_unit * unit);
    // Pooled across every epoch of the run: clear() keeps capacity, so
    // steady-state barriers allocate nothing.
    shard.outboxes.resize(static_cast<std::size_t>(shard_count));
    for (RankId r = shard.begin; r < shard.end; ++r) {
      shard_of[static_cast<std::size_t>(r)] = s;
      shard.queue.schedule(0.0, SimEvent::step(r));
    }
    // Published scalars the coordinator reduces instead of re-scanning
    // queues (fused epoch scan); refreshed at every window end and by
    // the barrier's apply phase.
    shard.next_time = shard.queue.next_time();
  }
  require_internal(next_unit == units && shards.back().end == n,
                   "shard layout must cover every rank");
  // Each NIC node's adapter state must belong to one shard (shard_unit).
  for (const Shard& shard : shards) {
    require_internal(!nic_ || shard.begin % nic_->pes_per_node == 0,
                     "shard layout must not split a NIC node");
  }

  const double lookahead = plan_lookahead();
  // The shard count fixes the simulation's structure — and, through the
  // determinism contract, its results. OS workers are only the
  // execution resource, so they are capped at the hardware's
  // concurrency: oversubscribing a smaller machine buys nothing but
  // scheduler churn at every epoch barrier. With a single worker the
  // epoch loop runs the shard windows inline on the calling thread —
  // the engine's whole advantage at scale (per-shard heaps, per-shard
  // working-set slices) is independent of which thread executes them.
  const std::size_t workers = std::min(
      static_cast<std::size_t>(shard_count),
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::optional<util::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);

  std::uint64_t epochs = 0;
  std::uint64_t empty_epochs = 0;
  std::uint64_t cross_messages = 0;
  // Worker-seconds the pool sat idle in the window phases
  // (sim.parallel.barrier_wait_s).
  double barrier_wait_seconds = 0.0;
  // The Amdahl numerator: wall seconds of the sections only the
  // coordinator thread executes (exported as sim.parallel.coordinator_s
  // and BENCH's coordinator_serial_fraction).
  double coordinator_seconds = 0.0;
  std::size_t total_fired = 0;
  bool budget_exhausted = false;
  // Every shard's entries into the partly entered collective, folded at
  // the coupled barriers since its last entry; `release` is set at the
  // barrier where the fold reaches every rank.
  CollectiveState frontier;
  std::optional<CollectiveRelease> release;

  // The event budget is enforced at barriers, so a tripped run can
  // overshoot SimConfig::max_events by at most one epoch per shard —
  // this helper is the single place that overshoot contract lives.
  // A finite published next_time means the shard still holds events.
  const auto enforce_event_budget = [&] {
    if (total_fired < config_.max_events) return;
    for (const Shard& shard : shards) {
      if (std::isfinite(shard.next_time)) budget_exhausted = true;
    }
  };

  const auto run_shard_window = [&](std::size_t i, double horizon,
                                    bool degenerate,
                                    std::size_t budget_left) {
    Shard& shard = shards[i];
    const util::Stopwatch shard_watch;
    shard.outbound_count = 0;
    shard.fired =
        shard.queue
            .run_window(horizon, degenerate, budget_left,
                        [this, &shard, &result](const SimEvent& event) {
                          dispatch(shard, event, result);
                        })
            .fired;
    // Barrier prep belongs to the worker phase, not the coordinator:
    // sort this shard's outbound runs into canonical order, then
    // publish the scalars the coordinator reduces.
    for (std::vector<Shard::OutboundMessage>& run : shard.outboxes) {
      if (run.size() > 1) {
        std::sort(run.begin(), run.end(),
                  [](const Shard::OutboundMessage& a,
                     const Shard::OutboundMessage& b) {
                    return canonical_before(a, b);
                  });
      }
    }
    shard.coupled = shard.outbound_count > 0 || shard.collective.entered > 0;
    shard.next_time = shard.queue.next_time();
    shard.busy_seconds = shard_watch.seconds();
  };

  // Barrier apply phase, one task per destination shard: schedule the
  // inbound runs every source sorted during the window, source by source
  // in shard order, then apply the coordinator's release, if any, to
  // this shard's own ranks. Both touch only this shard's queue and rank
  // slice (sources' buckets for this destination have exactly one
  // consumer — this task), so every destination proceeds concurrently.
  // Shards are contiguous rank ranges in rank order, so among messages
  // with equal arrival times this order is exactly canonical (sender,
  // send-ordinal) order, and messages with different times pop by time
  // whatever their sequence numbers: every tie-break replays the
  // oracle's. Every payload fires at its true arrival time — conservatism
  // guarantees the arrival is at or past the horizon, hence past
  // anything this shard fired during the window — so per-shard event
  // order, and with it the shard-local NIC adapter state, replays the
  // serial oracle's.
  const auto apply_barrier = [&](std::size_t d) {
    Shard& dest = shards[d];
    std::size_t injected = 0;
    for (Shard& source : shards) {
      std::vector<Shard::OutboundMessage>& run = source.outboxes[d];
      for (const Shard::OutboundMessage& message : run) {
        dest.queue.schedule(
            message.arrival,
            SimEvent::arrival(message.to, message.from, message.tag));
      }
      injected += run.size();
      run.clear();
    }
    dest.injected = injected;
    if (release) release_ranks(dest, *release, result);
    dest.next_time = dest.queue.next_time();
  };

  while (!budget_exhausted) {
    // Cancellation checkpoint once per epoch: the coordinator is the
    // only thread between barriers, so throwing here unwinds cleanly
    // with no worker in flight.
    check_cancellation();
    const util::Stopwatch scan_watch;
    double window_start = std::numeric_limits<double>::infinity();
    for (const Shard& shard : shards) {
      window_start = std::min(window_start, shard.next_time);
    }
    coordinator_seconds += scan_watch.seconds();
    if (!std::isfinite(window_start)) break;  // every queue drained
    const bool degenerate = lookahead <= 0.0;
    const double horizon = degenerate ? window_start : window_start + lookahead;
    const std::size_t budget_left =
        config_.max_events > total_fired ? config_.max_events - total_fired : 0;
    ++epochs;

    if (pool) {
      const util::Stopwatch epoch_watch;
      pool->parallel_for_chunked(
          shards.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              run_shard_window(i, horizon, degenerate, budget_left);
            }
          });
      // The workers' whole window time less the shards' busy time: a
      // shard queued behind another on the same worker is not waiting.
      double busy_seconds = 0.0;
      for (const Shard& shard : shards) busy_seconds += shard.busy_seconds;
      barrier_wait_seconds +=
          std::max(0.0, static_cast<double>(workers) * epoch_watch.seconds() -
                            busy_seconds);
    } else {
      // Single worker: no barrier exists, so no wait is recorded.
      for (std::size_t i = 0; i < shards.size(); ++i) {
        run_shard_window(i, horizon, degenerate, budget_left);
      }
    }

    // Coordinator serial section: O(shards) scalar reductions plus the
    // collective release decision — nothing here scales with the rank
    // count or the message volume (those moved into the worker and
    // apply phases).
    const util::Stopwatch decide_watch;
    bool coupled = false;
    for (const Shard& shard : shards) {
      total_fired += shard.fired;
      coupled |= shard.coupled;
    }
    // Fast path: an epoch that produced no cross-shard traffic and no
    // collective entries has nothing for the barrier to do. At 100k
    // ranks most epochs are pure intra-shard progress, so this keeps
    // the barrier cost proportional to actual coupling.
    if (!coupled) {
      ++empty_epochs;
      enforce_event_budget();
      coordinator_seconds += decide_watch.seconds();
      continue;
    }

    // Fold the shards' collective entries into the frontier. No rank
    // enters collective k+1 before k is released, and only this barrier
    // releases, so every entry since the last release names the
    // frontier and at most one collective completes here.
    for (Shard& shard : shards) {
      frontier.fold(shard.collective);
      shard.collective = {};
    }
    release.reset();
    if (frontier.entered == n) {
      release = release_collective(frontier, result.traffic);
      frontier = {};
    }
    coordinator_seconds += decide_watch.seconds();

    // Apply phase: every destination shard schedules its inbound runs and
    // applies the release, if any, to its own ranks, concurrently.
    if (pool) {
      pool->parallel_for_chunked(
          shards.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t d = begin; d < end; ++d) apply_barrier(d);
          });
    } else {
      for (std::size_t d = 0; d < shards.size(); ++d) apply_barrier(d);
    }

    const util::Stopwatch post_watch;
    for (const Shard& shard : shards) cross_messages += shard.injected;
    enforce_event_budget();
    coordinator_seconds += post_watch.seconds();
  }

  result.coordinator_seconds = coordinator_seconds;

  obs::Registry& registry = obs::global_registry();
  static obs::Counter& runs = registry.counter("sim.parallel.runs");
  static obs::Counter& epoch_count = registry.counter("sim.parallel.epochs");
  static obs::Counter& crossings =
      registry.counter("sim.parallel.cross_shard_messages");
  static obs::Gauge& barrier_wait =
      registry.gauge("sim.parallel.barrier_wait_s");
  static obs::Counter& empty_epoch_count =
      registry.counter("sim.parallel.empty_epochs");
  static obs::Gauge& coordinator_gauge =
      registry.gauge("sim.parallel.coordinator_s");
  runs.add(1);
  epoch_count.add(static_cast<std::int64_t>(epochs));
  crossings.add(static_cast<std::int64_t>(cross_messages));
  barrier_wait.set(barrier_wait_seconds);
  empty_epoch_count.add(static_cast<std::int64_t>(empty_epochs));
  coordinator_gauge.set(coordinator_seconds);
  finalize_run(result, shards, budget_exhausted, total_fired);
  return result;
}

}  // namespace krak::sim
