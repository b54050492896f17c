// Google-benchmark microbenchmarks of the simulator's hot path
// (docs/PERFORMANCE.md): the ladder event queue, the mailbox's
// per-peer slot list and its shard record pool, and the end-to-end
// event loop.
// CI's perf-smoke job runs this with --benchmark_min_time=0.05 as a
// does-it-still-run canary; run it bare for stable numbers.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "network/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "simapp/simkrak.hpp"
#include "util/rng.hpp"

namespace {

using namespace krak;

// Churn at a steady queue depth: a sliding window of pending events
// where every fire schedules a successor, so pushes land in the rung's
// later buckets and the top tier as the queue drains.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.schedule(static_cast<double>(i),
                     sim::SimEvent::step(static_cast<std::int32_t>(i)));
    }
    std::size_t remaining = 4 * depth;
    const sim::EventRunStats stats = queue.run([&](const sim::SimEvent& e) {
      if (remaining > 0) {
        --remaining;
        queue.schedule(queue.now() + 16.0, sim::SimEvent::step(e.rank));
      }
    });
    benchmark::DoNotOptimize(stats.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(5 * state.range(0)));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1 << 10)->Arg(1 << 14)
    ->Unit(benchmark::kMicrosecond);

// The replay's shape: range(0) steps released at one time, each posting
// kArrivals message arrivals spread over a window, then popped to
// empty, four times over. Each burst goes through a rung build, and
// the queue peaks at range(0) * kArrivals pending events (843,648 per
// shard in the 100k-rank replay).
void BM_EventQueueBurst(benchmark::State& state) {
  constexpr std::int32_t kArrivals = 64;
  constexpr int kReleases = 4;
  const auto steps = static_cast<std::int32_t>(state.range(0));
  util::Rng rng(static_cast<std::uint64_t>(steps));
  std::vector<double> delays(static_cast<std::size_t>(steps) * kArrivals);
  for (double& delay : delays) delay = rng.next_double(1e-6, 1e-3);
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (int release = 0; release < kReleases; ++release) {
      const double at = queue.now() + 1e-3;
      for (std::int32_t r = 0; r < steps; ++r) {
        queue.schedule(at, sim::SimEvent::step(r));
      }
      fired += queue.run([&](const sim::SimEvent& e) {
        if (e.kind != sim::EventKind::kStepRank) return;
        const double* delay =
            delays.data() + static_cast<std::size_t>(e.rank) * kArrivals;
        for (std::int32_t k = 0; k < kArrivals; ++k) {
          queue.schedule(queue.now() + delay[k],
                         sim::SimEvent::arrival(e.rank, k, 0));
        }
      }).fired;
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kReleases * state.range(0) * (kArrivals + 1));
}
BENCHMARK(BM_EventQueueBurst)->Arg(1 << 10)->Arg(12800)
    ->Unit(benchmark::kMillisecond);

// The Krak exchange pattern against the mailbox: a fixed set of
// (peer, tag) keys hit every iteration, half the pops finding their
// message pending and half coming back empty.
void BM_MailboxPushPop(benchmark::State& state) {
  const std::int32_t peers = 8;
  const std::int32_t tags = 24;  // ~ tags of one boundary-exchange phase
  for (auto _ : state) {
    sim::MailboxPool pool;
    sim::Mailbox mailbox;
    double arrival = 0.0;
    for (std::int32_t round = 0; round < 64; ++round) {
      for (std::int32_t peer = 0; peer < peers; ++peer) {
        for (std::int32_t tag = 0; tag < tags; ++tag) {
          mailbox.push(pool, peer, tag, static_cast<double>(round));
          if ((tag & 1) != 0) {
            benchmark::DoNotOptimize(
                mailbox.try_pop(pool, peer, tag, &arrival));
          }
        }
      }
    }
    benchmark::DoNotOptimize(mailbox.probes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          peers * tags);
}
BENCHMARK(BM_MailboxPushPop)->Unit(benchmark::kMicrosecond);

// A boundary exchange against one shard's mailboxes: 1,024 receivers
// on a 32-wide grid of ranks, each with range(0) to range(1) peers and
// 12 messages per peer. 5–6 peers (5.5 on average) is the
// 102,400-rank replay's RCB partition; 20–34 is the validation decks'
// multilevel tail, where the list scans longest. Each round delivers
// every message in arrival order — message by message across all peers
// and receivers, as a released exchange's arrivals interleave — and
// then each receiver takes its messages in program order, peer by
// peer, so the whole exchange is in flight at once. Items are messages.
void BM_MailboxExchange(benchmark::State& state) {
  constexpr std::int32_t kReceivers = 1024;
  constexpr std::int32_t kWidth = 32;
  constexpr std::int32_t kMessages = 12;
  constexpr int kRounds = 4;
  // Grid neighbors nearest first; the first six are the 5–6 peer
  // stencil.
  constexpr std::int32_t kOffsets[][2] = {
      {1, 0},   {0, 1},   {-1, 0},  {0, -1},  {1, 1},   {-1, -1}, {1, -1},
      {-1, 1},  {2, 0},   {0, 2},   {-2, 0},  {0, -2},  {2, 1},   {1, 2},
      {-1, 2},  {-2, 1},  {-2, -1}, {-1, -2}, {1, -2},  {2, -1},  {2, 2},
      {-2, 2},  {-2, -2}, {2, -2},  {3, 0},   {0, 3},   {-3, 0},  {0, -3},
      {3, 1},   {1, 3},   {-1, 3},  {-3, 1},  {-3, -1}, {-1, -3}};
  const auto low = static_cast<std::int32_t>(state.range(0));
  const auto spread = static_cast<std::int32_t>(state.range(1)) - low + 1;
  const auto peer_count = [&](std::int32_t receiver) {
    return low + receiver % spread;
  };
  const auto peer_of = [&](std::int32_t receiver, std::int32_t k) {
    const std::int32_t offset = kOffsets[k][0] + kWidth * kOffsets[k][1];
    return (receiver + offset + kReceivers) % kReceivers;
  };
  std::int64_t messages = 0;
  for (auto _ : state) {
    sim::MailboxPool pool;
    std::vector<sim::Mailbox> mailboxes(kReceivers);
    double arrival = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      for (std::int32_t m = 0; m < kMessages; ++m) {
        for (std::int32_t r = 0; r < kReceivers; ++r) {
          for (std::int32_t k = 0; k < peer_count(r); ++k) {
            mailboxes[static_cast<std::size_t>(r)].push(
                pool, peer_of(r, k), m, static_cast<double>(m));
          }
        }
      }
      for (std::int32_t r = 0; r < kReceivers; ++r) {
        for (std::int32_t k = 0; k < peer_count(r); ++k) {
          for (std::int32_t m = 0; m < kMessages; ++m) {
            const bool found = mailboxes[static_cast<std::size_t>(r)].try_pop(
                pool, peer_of(r, k), m, &arrival);
            benchmark::DoNotOptimize(found);
            ++messages;
          }
        }
      }
    }
    benchmark::DoNotOptimize(arrival);
  }
  state.SetItemsProcessed(messages);
}
BENCHMARK(BM_MailboxExchange)->Args({5, 6})->Args({20, 34})
    ->Unit(benchmark::kMicrosecond);

struct HotLoopEnv {
  simapp::ComputationCostEngine engine;
  network::MachineConfig machine = network::make_es45_qsnet();
};

const HotLoopEnv& hot_loop_env() {
  static const HotLoopEnv env;
  return env;
}

simapp::SimKrakOptions hot_loop_options() {
  simapp::SimKrakOptions options;
  options.iterations = 3;
  return options;
}

// End-to-end hot loop: the full simulated Krak iteration at the event
// engine's steady state, items = events drained per second.
void BM_SimHotLoop(benchmark::State& state) {
  const HotLoopEnv& env = hot_loop_env();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const auto pes = static_cast<std::int32_t>(state.range(0));
  const partition::Partition part = partition::partition_deck(
      deck, pes, partition::PartitionMethod::kMultilevel, 1);
  const simapp::SimKrak app(deck, part, env.machine, env.engine,
                            hot_loop_options());
  std::size_t events = 0;
  for (auto _ : state) {
    const simapp::SimKrakResult result = app.run();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.total_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimHotLoop)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The hierarchical-network hot loop: every isend costs through the
// concrete HierarchicalNetwork installed on the simulator instead of
// the machine-level model. This is the datapoint guarding the pair
// network's cost on the hot send path, which is one branch per send
// over the flat model.
void BM_SimHotLoopHierarchical(benchmark::State& state) {
  const HotLoopEnv& env = hot_loop_env();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const auto pes = static_cast<std::int32_t>(state.range(0));
  const partition::Partition part = partition::partition_deck(
      deck, pes, partition::PartitionMethod::kMultilevel, 1);
  simapp::SimKrakOptions options = hot_loop_options();
  options.hierarchical_network = true;
  const simapp::SimKrak app(deck, part, env.machine, env.engine, options);
  std::size_t events = 0;
  for (auto _ : state) {
    const simapp::SimKrakResult result = app.run();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.total_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimHotLoopHierarchical)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The conservative parallel engine against the single-thread oracle on
// the same deck: range(0) is SimConfig::threads. Results are
// bit-identical across the sweep (the determinism suite asserts it);
// this measures the epoch-barrier overhead and the win once shards
// carry enough events per window.
void BM_SimHotLoopParallel(benchmark::State& state) {
  const HotLoopEnv& env = hot_loop_env();
  const mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  const partition::Partition part = partition::partition_deck(
      deck, 128, partition::PartitionMethod::kMultilevel, 1);
  simapp::SimKrakOptions options = hot_loop_options();
  options.sim_threads = static_cast<std::int32_t>(state.range(0));
  const simapp::SimKrak app(deck, part, env.machine, env.engine, options);
  std::size_t events = 0;
  for (auto _ : state) {
    const simapp::SimKrakResult result = app.run();
    events += result.events_processed;
    benchmark::DoNotOptimize(result.total_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimHotLoopParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
