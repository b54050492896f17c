// The conservative parallel engine's bit-identity contract
// (docs/PERFORMANCE.md, "Parallel simulation"): every simulated outcome
// of SimConfig::threads > 1 — times, per-rank breakdowns, records,
// traffic, fault accounting, structured failures — must equal the
// single-thread oracle's exactly, across thread counts {1, 2, 8}. Also
// the simulated-time bound: a run that drains its event queue while its
// final ops push a rank past SimConfig::max_sim_seconds must still trip
// the bound instead of reporting success, and the engine's timing
// gauges: the coordinator wall and the idle worker-seconds at its
// barriers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "network/msgmodel.hpp"
#include "obs/metrics.hpp"
#include "network/topology.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace krak::sim {
namespace {

/// 1 us latency, 1 ns/byte, zero host overheads: hand-checkable times.
Simulator make_simulator(Program& program, std::int32_t threads,
                         double max_sim_seconds = 0.0) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  config.threads = threads;
  config.max_sim_seconds = max_sim_seconds;
  return Simulator(program, network::make_hockney_model(1e-6, 1e9), config);
}

/// Tiny deterministic generator (SplitMix64) for schedule shapes; the
/// schedules must be identical across engines, nothing more.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

/// A messy but deadlock-free workload: per-rank compute jitter, a ring
/// exchange with per-round tags (posted send-first), periodic
/// collectives, and record markers. Exercises cross-shard sends in both
/// directions, collective coordination, and the record slots.
StoredProgram ring_workload(std::int32_t ranks, std::int32_t rounds) {
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    Mix mix{0xC0FFEEull + static_cast<std::uint64_t>(r)};
    std::vector<Op> ops;
    const RankId right = (r + 1) % ranks;
    const RankId left = (r + ranks - 1) % ranks;
    for (std::int32_t round = 0; round < rounds; ++round) {
      ops.push_back(Op::compute(1e-6 * static_cast<double>(mix.below(50))));
      const double bytes = static_cast<double>(64 + mix.below(4096));
      ops.push_back(Op::isend(right, bytes, /*tag=*/round));
      // The matching size must be what the left neighbor sent: derive it
      // from the neighbor's stream the same way it does.
      Mix left_mix{0xC0FFEEull + static_cast<std::uint64_t>(left)};
      for (std::int32_t skip = 0; skip < round; ++skip) {
        left_mix.next();  // its compute draw
        left_mix.next();  // its bytes draw
        left_mix.next();  // its trailing compute draw
      }
      left_mix.next();
      const double left_bytes = static_cast<double>(64 + left_mix.below(4096));
      ops.push_back(Op::recv(left, left_bytes, /*tag=*/round));
      ops.push_back(Op::compute(1e-6 * static_cast<double>(mix.below(20))));
      if (round % 3 == 1) ops.push_back(Op::allreduce(8.0));
      if (round % 4 == 2) ops.push_back(Op::broadcast(256.0));
      ops.push_back(Op::record(round));
    }
    ops.push_back(Op::wait_all_sends());
    program.set(r, std::move(ops));
  }
  return program;
}

void expect_identical(const SimResult& oracle, const SimResult& parallel) {
  EXPECT_EQ(oracle.makespan, parallel.makespan);
  ASSERT_EQ(oracle.finish_times.size(), parallel.finish_times.size());
  for (std::size_t r = 0; r < oracle.finish_times.size(); ++r) {
    EXPECT_EQ(oracle.finish_times[r], parallel.finish_times[r]) << "rank " << r;
  }
  ASSERT_EQ(oracle.breakdown.size(), parallel.breakdown.size());
  for (std::size_t r = 0; r < oracle.breakdown.size(); ++r) {
    const RankTimeBreakdown& a = oracle.breakdown[r];
    const RankTimeBreakdown& b = parallel.breakdown[r];
    EXPECT_EQ(a.compute, b.compute) << "rank " << r;
    EXPECT_EQ(a.send_overhead, b.send_overhead) << "rank " << r;
    EXPECT_EQ(a.recv_overhead, b.recv_overhead) << "rank " << r;
    EXPECT_EQ(a.send_wait, b.send_wait) << "rank " << r;
    EXPECT_EQ(a.recv_wait, b.recv_wait) << "rank " << r;
    EXPECT_EQ(a.collective_wait, b.collective_wait) << "rank " << r;
    EXPECT_EQ(a.collective_cost, b.collective_cost) << "rank " << r;
    EXPECT_EQ(a.fault_delay, b.fault_delay) << "rank " << r;
    EXPECT_EQ(a.recovery, b.recovery) << "rank " << r;
  }
  EXPECT_EQ(oracle.records, parallel.records);
  EXPECT_EQ(oracle.traffic.point_to_point_messages,
            parallel.traffic.point_to_point_messages);
  EXPECT_EQ(oracle.traffic.point_to_point_bytes,
            parallel.traffic.point_to_point_bytes);
  EXPECT_EQ(oracle.traffic.allreduces, parallel.traffic.allreduces);
  EXPECT_EQ(oracle.traffic.broadcasts, parallel.traffic.broadcasts);
  EXPECT_EQ(oracle.traffic.gathers, parallel.traffic.gathers);
  EXPECT_EQ(oracle.faults.injections, parallel.faults.injections);
  EXPECT_EQ(oracle.faults.retransmits, parallel.faults.retransmits);
  EXPECT_EQ(oracle.faults.messages_lost,
            parallel.faults.messages_lost);
  EXPECT_EQ(oracle.faults.fault_delay_seconds,
            parallel.faults.fault_delay_seconds);
  EXPECT_EQ(oracle.faults.recovery_seconds,
            parallel.faults.recovery_seconds);
  ASSERT_EQ(oracle.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < oracle.failures.size(); ++i) {
    EXPECT_EQ(oracle.failures[i].kind, parallel.failures[i].kind);
    EXPECT_EQ(oracle.failures[i].rank, parallel.failures[i].rank);
    EXPECT_EQ(oracle.failures[i].op_index, parallel.failures[i].op_index);
    EXPECT_EQ(oracle.failures[i].to_string(), parallel.failures[i].to_string());
  }
}

TEST(SimulatorParallel, RingWorkloadIdenticalAcrossThreadCounts) {
  StoredProgram program = ring_workload(/*ranks=*/24, /*rounds=*/12);
  Simulator oracle = make_simulator(program, 1);
  const SimResult reference = oracle.run();
  EXPECT_GT(reference.makespan, 0.0);
  for (std::int32_t threads : {2, 8}) {
    Simulator sim = make_simulator(program, threads);
    expect_identical(reference, sim.run());
  }
}

TEST(SimulatorParallel, MoreThreadsThanRanksStillIdentical) {
  StoredProgram program = ring_workload(/*ranks=*/3, /*rounds=*/6);
  Simulator oracle = make_simulator(program, 1);
  const SimResult reference = oracle.run();
  Simulator sim = make_simulator(program, 8);  // clamps to one rank per shard
  expect_identical(reference, sim.run());
}

TEST(SimulatorParallel, CollectiveOnlyScheduleIdentical) {
  // All coordination flows through the epoch-barrier collective path.
  const std::int32_t ranks = 16;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    program.set(
        r, {Op::compute(1e-6 * static_cast<double>(r + 1)), Op::allreduce(8.0),
            Op::compute(2e-6), Op::gather(128.0), Op::broadcast(64.0),
            Op::record(0)});
  }
  Simulator oracle = make_simulator(program, 1);
  const SimResult reference = oracle.run();
  for (std::int32_t threads : {2, 8}) {
    Simulator sim = make_simulator(program, threads);
    expect_identical(reference, sim.run());
  }
}

TEST(SimulatorParallel, CollectiveBelowInterNodeLookaheadMatchesOracle) {
  // A slow interconnect over a fast flat model: the inter-node minimum
  // (100 us) exceeds the allreduce's whole cost (six flat 8-byte
  // messages, about 6 us), and rank 0's 50 KB intra-node send reaches
  // rank 1 at 51 us, after the completion. A window of the inter-node
  // lookahead would fire that arrival before its barrier releases the
  // allreduce below it; capped at the flat minimum, every release lands
  // at or past its window's horizon.
  const std::int32_t ranks = 8;
  StoredProgram program(ranks);
  for (RankId r = 2; r < ranks; ++r) program.set(r, {Op::allreduce(8.0)});
  program.set(0, {Op::isend(1, 50e3, 1), Op::allreduce(8.0)});
  program.set(1, {Op::allreduce(8.0), Op::recv(0, 50e3, 1)});
  const network::MessageCostModel intra =
      network::make_hockney_model(1e-6, 1e9);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_simulator(program, threads);
    sim.set_pair_network(std::make_shared<network::HierarchicalNetwork>(
        intra, network::make_hockney_model(100e-6, 1e9),
        network::Placement(ranks, 4)));
    return sim.run();
  };
  const SimResult reference = run_with(1);
  ASSERT_FALSE(reference.failed());
  EXPECT_LT(reference.finish_times[2], 10e-6);  // the completion
  EXPECT_EQ(reference.finish_times[1], intra.message_time(50e3));
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, ZeroLatencyNetworkDegeneratesToLockstepAndMatches) {
  // Zero lookahead: the engine must fall back to one-timestamp-per-epoch
  // (null-message-style progression) and still match the oracle.
  StoredProgram program = ring_workload(/*ranks=*/8, /*rounds=*/8);
  auto make = [&](std::int32_t threads) {
    SimConfig config;
    config.send_overhead = 0.0;
    config.recv_overhead = 0.0;
    config.threads = threads;
    return Simulator(program, network::make_hockney_model(0.0, 1e9), config);
  };
  Simulator oracle = make(1);
  const SimResult reference = oracle.run();
  Simulator sim = make(4);
  expect_identical(reference, sim.run());
}

TEST(SimulatorParallel, FaultPlanFailuresPropagateFromWorkerShards) {
  // A plan that drops every message past its retransmit budget: the
  // receiving ranks hang, the simulator diagnoses them, and the
  // structured failures must come back in the same canonical order
  // from every engine.
  const std::int32_t ranks = 12;
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::MessageFaultModel model;
  model.rank = fault::kAllRanks;
  model.drop_probability = 0.999999;  // effectively always dropped
  model.max_retries = 0;
  plan.message_faults.push_back(model);

  StoredProgram program = ring_workload(ranks, /*rounds=*/4);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_simulator(program, threads, /*max_sim_seconds=*/1.0);
    fault::InjectionEngine engine(plan, ranks, /*phases_per_iteration=*/1);
    sim.set_fault_injector(&engine);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  EXPECT_FALSE(reference.failures.empty());
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, InjectedDelaysIdenticalAcrossThreadCounts) {
  const std::int32_t ranks = 12;
  fault::FaultPlan plan;
  plan.seed = 21;
  plan.slowdowns.push_back({fault::kAllRanks, 1.1});
  fault::OneOffDelay delay;
  delay.rank = 5;
  delay.phase = 1;
  delay.iteration = 2;
  delay.seconds = 3e-4;
  plan.delays.push_back(delay);

  StoredProgram program = ring_workload(ranks, /*rounds=*/10);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_simulator(program, threads);
    fault::InjectionEngine engine(plan, ranks, /*phases_per_iteration=*/1);
    sim.set_fault_injector(&engine);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  EXPECT_GT(reference.faults.fault_delay_seconds, 0.0);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, CrossShardDeadlockDiagnosedNotHung) {
  // Ranks in different shards blocked on receives nobody will send;
  // every shard's queue drains, the barrier loop exits, and the drain
  // diagnosis must report each stuck rank exactly like the oracle.
  const std::int32_t ranks = 8;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    program.set(r, {Op::compute(1e-6),
                    Op::recv((r + 1) % ranks, 8.0, /*tag=*/99)});
  }
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_simulator(program, threads);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  ASSERT_EQ(reference.failures.size(), static_cast<std::size_t>(ranks));
  for (const SimFailure& failure : reference.failures) {
    EXPECT_EQ(failure.kind, SimFailure::Kind::kDeadlock);
  }
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, EventBudgetTripsAsStructuredEventLimit) {
  StoredProgram program = ring_workload(/*ranks=*/8, /*rounds=*/8);
  auto run_with = [&](std::int32_t threads) {
    SimConfig config;
    config.send_overhead = 0.0;
    config.recv_overhead = 0.0;
    config.threads = threads;
    config.max_events = 40;  // far fewer than the workload needs
    Simulator sim(program, network::make_hockney_model(1e-6, 1e9), config);
    return sim.run();
  };
  // The parallel engine checks the budget at epoch barriers, so fired
  // event counts may overshoot; the structured run-level diagnosis is
  // the contract, not the mechanics.
  for (std::int32_t threads : {1, 2, 8}) {
    const SimResult result = run_with(threads);
    ASSERT_FALSE(result.failures.empty()) << threads << " threads";
    EXPECT_EQ(result.failures.front().kind, SimFailure::Kind::kEventLimit);
    EXPECT_EQ(result.failures.front().rank, -1);
  }
}

// --- Shared-NIC contention: shard-local, unsynchronized, bit-identical ---

/// NIC-enabled simulator; a deliberately slow injection bandwidth makes
/// adapter contention the dominant effect so any ordering divergence in
/// the shard-local nic_free_ updates would show up in the times.
Simulator make_nic_simulator(Program& program, std::int32_t threads,
                             std::int32_t pes_per_node,
                             double latency = 1e-6) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  config.threads = threads;
  Simulator sim(program, network::make_hockney_model(latency, 1e9), config);
  NicConfig nic;
  nic.pes_per_node = pes_per_node;
  nic.injection_bandwidth = 2e8;  // 4 KiB serializes for ~20 us
  sim.set_nic(nic);
  return sim;
}

TEST(SimulatorParallel, NicContentionIdenticalAcrossThreadCounts) {
  // Shard boundaries align to NIC node boundaries (shard_unit), so each
  // shard owns its nodes' adapter-availability state outright: the
  // engine runs genuinely parallel — no oracle fallback — and must stay
  // bit-identical to the serial oracle.
  StoredProgram program = ring_workload(/*ranks=*/32, /*rounds=*/10);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, NicStallCountIdenticalAcrossThreadCounts) {
  // sim.nic.stalls counts sends that found their node's adapter busy.
  // Both engines export it, and shard-local adapter state must stall
  // exactly the sends the oracle stalls.
  StoredProgram program = ring_workload(/*ranks=*/32, /*rounds=*/10);
  const obs::Counter& stalls =
      obs::global_registry().counter("sim.nic.stalls");
  auto stalls_added = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4);
    const std::int64_t before = stalls.value();
    (void)sim.run();
    return stalls.value() - before;
  };
  const std::int64_t reference = stalls_added(1);
  EXPECT_GT(reference, 0);
  for (std::int32_t threads : {2, 8}) {
    EXPECT_EQ(stalls_added(threads), reference) << "threads " << threads;
  }
}

TEST(SimulatorParallel, NicOnPartialLastNodeIdentical) {
  // 10 ranks on 4-wide NIC nodes: the last node is half-occupied, the
  // unit count does not divide the shard count, and shards must still
  // align to whole nodes.
  StoredProgram program = ring_workload(/*ranks=*/10, /*rounds=*/8);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  for (std::int32_t threads : {2, 3, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, NicUnderHierarchicalNetworkIdentical) {
  // NIC serialization and two-level message costs together: the shard
  // unit is the lcm of the placement's and the NIC's node widths, and
  // the parallel lookahead comes from the inter-node model's
  // min_message_time.
  const std::int32_t ranks = 24;
  StoredProgram program = ring_workload(ranks, /*rounds=*/8);
  auto run_with = [&](std::int32_t threads) {
    SimConfig config;
    config.send_overhead = 0.0;
    config.recv_overhead = 0.0;
    config.threads = threads;
    Simulator sim(program, network::make_qsnet1_model(), config);
    sim.set_pair_network(std::make_shared<network::HierarchicalNetwork>(
        network::make_es45_shared_memory_model(), network::make_qsnet1_model(),
        network::Placement(ranks, 4)));
    NicConfig nic;
    nic.pes_per_node = 2;  // lcm(4, 2) = 4: placement wins
    nic.injection_bandwidth = 2e8;
    sim.set_nic(nic);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, ZeroLatencyWithNicDegeneratesAndMatches) {
  // Zero lookahead and NIC contention at once: the degenerate
  // one-timestamp-per-epoch progression must preserve shard-local NIC
  // identity too.
  StoredProgram program = ring_workload(/*ranks=*/8, /*rounds=*/8);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4,
                                       /*latency=*/0.0);
    return sim.run();
  };
  expect_identical(run_with(1), run_with(4));
}

TEST(SimulatorParallel, ZeroLatencyInterNodeHierarchyWithNicMatches) {
  // The hierarchical lookahead is the inter-node model's
  // min_message_time; a zero-latency interconnect collapses it to zero
  // and the engine must degenerate to lockstep — not deadlock, not
  // drift — with NIC contention still active.
  const std::int32_t ranks = 16;
  StoredProgram program = ring_workload(ranks, /*rounds=*/6);
  auto run_with = [&](std::int32_t threads) {
    SimConfig config;
    config.send_overhead = 0.0;
    config.recv_overhead = 0.0;
    config.threads = threads;
    Simulator sim(program, network::make_hockney_model(0.0, 1e9), config);
    sim.set_pair_network(std::make_shared<network::HierarchicalNetwork>(
        network::make_es45_shared_memory_model(),
        network::make_hockney_model(0.0, 1e9), network::Placement(ranks, 4)));
    NicConfig nic;
    nic.pes_per_node = 4;
    nic.injection_bandwidth = 2e8;
    sim.set_nic(nic);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  for (std::int32_t threads : {2, 4}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, NicWithFaultPlanIdenticalAcrossThreadCounts) {
  // Contended adapters plus injected delays: fate draws and NIC
  // serialization interact on the send path, and the combination must
  // still replay the oracle exactly.
  const std::int32_t ranks = 16;
  fault::FaultPlan plan;
  plan.seed = 33;
  plan.slowdowns.push_back({fault::kAllRanks, 1.07});
  fault::OneOffDelay delay;
  delay.rank = 9;
  delay.phase = 1;
  delay.iteration = 3;
  delay.seconds = 4e-4;
  plan.delays.push_back(delay);

  StoredProgram program = ring_workload(ranks, /*rounds=*/8);
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4);
    fault::InjectionEngine engine(plan, ranks, /*phases_per_iteration=*/1);
    sim.set_fault_injector(&engine);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  EXPECT_GT(reference.faults.fault_delay_seconds, 0.0);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

// --- The simulated-time bound, SimConfig::max_sim_seconds ---

TEST(SimulatorWatchdog, FinalOpOvershootTripsTimeLimit) {
  // One rank, one compute op that blows through the bound: the queue
  // drains (no further events), so a check made only before each op
  // would never re-examine the clock and report success at t = 10.
  StoredProgram program({{Op::compute(10.0)}});
  Simulator sim = make_simulator(program, 1, /*max_sim_seconds=*/5.0);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, SimFailure::Kind::kTimeLimit);
  EXPECT_EQ(result.failures[0].rank, 0);
}

TEST(SimulatorWatchdog, FinalOpOvershootRecordedEvenWithoutStructuredMode) {
  // No mode selects how a trip is reported: it is always a failure in
  // the result, and the tripped rank keeps the clock where it stopped
  // with a breakdown that still sums to it, while the run keeps
  // draining so the other ranks' timings stay meaningful.
  StoredProgram program({{Op::compute(10.0)}, {Op::compute(2.0)}});
  Simulator sim = make_simulator(program, 1, /*max_sim_seconds=*/5.0);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, SimFailure::Kind::kTimeLimit);
  EXPECT_EQ(result.finish_times[0], 10.0);
  EXPECT_EQ(result.breakdown[0].total_seconds(), 10.0);
  EXPECT_EQ(result.finish_times[1], 2.0);
}

TEST(SimulatorWatchdog, TrailingOpsAfterMidScheduleTripAreNotExecuted) {
  // The bound fires mid-schedule: the recording op behind the oversized
  // compute must never run.
  StoredProgram program(
      {{Op::compute(1.0), Op::compute(10.0), Op::record(0)}});
  Simulator sim = make_simulator(program, 1, /*max_sim_seconds=*/5.0);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].kind, SimFailure::Kind::kTimeLimit);
  EXPECT_TRUE(result.records[0].empty());
}

TEST(SimulatorWatchdog, RunWithinBoundStillSucceeds) {
  StoredProgram program({{Op::compute(4.0)}});
  Simulator sim = make_simulator(program, 1, /*max_sim_seconds=*/5.0);
  const SimResult result = sim.run();
  EXPECT_TRUE(result.failures.empty());
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);
}

TEST(SimulatorWatchdog, OvershootIdenticalAcrossThreadCounts) {
  const std::int32_t ranks = 6;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    // Ranks 0 and 3 blow the bound with their final op; the rest stay
    // inside it.
    const double tail = (r % 3 == 0) ? 9.0 : 0.5;
    program.set(r, {Op::compute(0.25), Op::compute(tail)});
  }
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_simulator(program, threads, /*max_sim_seconds=*/5.0);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  ASSERT_EQ(reference.failures.size(), 2u);
  EXPECT_EQ(reference.failures[0].rank, 0);
  EXPECT_EQ(reference.failures[1].rank, 3);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

// --- Epoch-barrier tie-breaking (PR 10) ---

TEST(SimulatorParallel, SameArrivalCrossShardSendersTieBreakIdentical) {
  // Three remote senders on distinct nodes (hence distinct shards at 8
  // threads) land payloads on node 0 at exactly the same timestamp:
  // zero overheads, equal clocks, equal bytes. The barrier must break
  // the (arrival) tie by sender in canonical order — and the receivers'
  // immediate big replies then serialize on node 0's shared NIC adapter
  // in wake order, so any deviation in the injected tie order shifts
  // real simulated times, not just internal sequence numbers.
  const std::int32_t ranks = 16;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < 3; ++r) {
    // Receivers 0..2 on node 0; senders 4, 8, 12 on nodes 1, 2, 3.
    const auto sender = static_cast<RankId>(4 * (r + 1));
    program.set(r, {Op::recv(sender, 512.0, /*tag=*/0),
                    Op::isend(sender, 4096.0, /*tag=*/1),
                    Op::recv(sender, 64.0, /*tag=*/2), Op::wait_all_sends()});
    program.set(sender, {Op::isend(r, 512.0, /*tag=*/0),
                         Op::recv(r, 4096.0, /*tag=*/1),
                         Op::isend(r, 64.0, /*tag=*/2), Op::wait_all_sends()});
  }
  auto run_with = [&](std::int32_t threads) {
    Simulator sim = make_nic_simulator(program, threads, /*pes_per_node=*/4);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  EXPECT_GT(reference.makespan, 0.0);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, CollectivesCoScheduledWithMessagesIdentical) {
  // Zero network latency collapses each round's message arrivals and
  // collective releases onto shared timestamps, so every barrier must
  // interleave message injection and release application per queue in
  // exactly the oracle's order (canonical messages first, then release
  // steps) — the tie is broken purely by event sequence numbers.
  const std::int32_t ranks = 12;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    std::vector<Op> ops;
    const RankId right = (r + 1) % ranks;
    const RankId left = (r + ranks - 1) % ranks;
    for (std::int32_t round = 0; round < 8; ++round) {
      // Half the ranks pay a tiny compute so rounds drift in and out
      // of lockstep instead of every timestamp being identical.
      if (r % 2 == 0) ops.push_back(Op::compute(1e-6));
      ops.push_back(Op::isend(right, 256.0, /*tag=*/round));
      ops.push_back(Op::recv(left, 256.0, /*tag=*/round));
      ops.push_back(Op::allreduce(16.0));
    }
    ops.push_back(Op::wait_all_sends());
    program.set(r, std::move(ops));
  }
  auto run_with = [&](std::int32_t threads) {
    SimConfig config;
    config.send_overhead = 0.0;
    config.recv_overhead = 0.0;
    config.threads = threads;
    Simulator sim(program, network::make_hockney_model(0.0, 1e9), config);
    return sim.run();
  };
  const SimResult reference = run_with(1);
  EXPECT_EQ(reference.traffic.allreduces, 8);
  for (std::int32_t threads : {2, 8}) {
    expect_identical(reference, run_with(threads));
  }
}

TEST(SimulatorParallel, ShardCountNotDividingRanksIdentical) {
  // 22 ranks over 3, 5, and 8 shards: uneven blocks, including shards
  // one rank larger than others — the merge and the release application
  // must cover exactly every rank with no overlap.
  StoredProgram program = ring_workload(/*ranks=*/22, /*rounds=*/10);
  Simulator oracle = make_simulator(program, 1);
  const SimResult reference = oracle.run();
  for (std::int32_t threads : {3, 5, 8}) {
    Simulator sim = make_simulator(program, threads);
    expect_identical(reference, sim.run());
  }
}

TEST(SimulatorParallel, CollectiveStateWindowStaysBounded) {
  // Hundreds of collectives back to back: each shard folds its ranks'
  // entries into one state and the coordinator folds those into one
  // frontier, so nothing grows with the collective count, and the
  // sharded engine still replays the oracle exactly.
  const std::int32_t ranks = 8;
  StoredProgram program(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    std::vector<Op> ops;
    for (std::int32_t i = 0; i < 300; ++i) {
      ops.push_back(Op::compute(1e-7 * static_cast<double>(r + 1)));
      ops.push_back(Op::allreduce(8.0));
    }
    program.set(r, std::move(ops));
  }
  Simulator oracle = make_simulator(program, 1);
  const SimResult reference = oracle.run();
  EXPECT_EQ(reference.traffic.allreduces, 300);
  Simulator sim = make_simulator(program, 4);
  expect_identical(reference, sim.run());
}

TEST(SimulatorParallel, MismatchedCollectivesThrowInEveryEngine) {
  // A k-th collective that names another kind or size fails the run in
  // every engine, whether the mismatching entries fold inside one shard
  // or meet only in the coordinator's frontier. At 2 threads ranks 0-3
  // and 4-7 share a shard, so one odd rank mismatches inside its shard
  // while an odd shard mismatches only across; at 8 every rank is its
  // own shard.
  struct Case {
    const char* name;
    RankId first;  ///< the odd ranks are [first, last]
    RankId last;
    Op odd;  ///< their third collective, in place of allreduce(8)
  };
  const std::int32_t ranks = 8;
  for (const Case& c : {Case{"rank 1 kind", 1, 1, Op::broadcast(8.0)},
                        Case{"rank 6 bytes", 6, 6, Op::allreduce(16.0)},
                        Case{"ranks 4-7 kind", 4, 7, Op::gather(8.0)},
                        Case{"ranks 4-7 bytes", 4, 7, Op::allreduce(4.0)}}) {
    StoredProgram program(ranks);
    for (RankId r = 0; r < ranks; ++r) {
      std::vector<Op> ops;
      for (std::int32_t k = 0; k < 4; ++k) {
        // Staggered entries, so the folds span several epochs.
        ops.push_back(
            Op::compute(1e-6 * static_cast<double>((r * 7 + k * 3) % 5 + 1)));
        ops.push_back(k == 2 && r >= c.first && r <= c.last
                          ? c.odd
                          : Op::allreduce(8.0));
      }
      program.set(r, std::move(ops));
    }
    for (std::int32_t threads : {1, 2, 8}) {
      Simulator sim = make_simulator(program, threads);
      try {
        (void)sim.run();
        ADD_FAILURE() << c.name << ", threads " << threads << ": no throw";
      } catch (const util::KrakError& error) {
        EXPECT_NE(std::string(error.what())
                      .find("mismatched collective sequence"),
                  std::string::npos)
            << c.name << ", threads " << threads << ": " << error.what();
      }
    }
  }
}

TEST(SimulatorParallel, CoordinatorTimingFieldsPopulated) {
  // The Amdahl numerator of the epoch barrier: the parallel engine
  // reports its serial-coordinator wall; the oracle has no coordinator
  // and reports zero.
  StoredProgram program = ring_workload(/*ranks=*/16, /*rounds=*/8);
  Simulator sim = make_simulator(program, 4);
  const SimResult parallel = sim.run();
  EXPECT_GT(parallel.coordinator_seconds, 0.0);
  Simulator oracle = make_simulator(program, 1);
  const SimResult serial = oracle.run();
  EXPECT_EQ(serial.coordinator_seconds, 0.0);
}

TEST(SimulatorParallel, BarrierWaitIsBoundedByWorkerTime) {
  // sim.parallel.barrier_wait_s counts the worker-seconds the pool sat
  // idle in the epoch windows, so it cannot exceed the workers' whole
  // time in the run. With more shards than workers, shards queue on
  // each worker, and a queued shard is not waiting at the barrier.
  const std::int32_t shards = 64;
  StoredProgram program = ring_workload(/*ranks=*/256, /*rounds=*/16);
  Simulator sim = make_simulator(program, shards);
  const util::Stopwatch watch;
  const SimResult result = sim.run();
  const double wall = watch.seconds();
  ASSERT_FALSE(result.failed());
  const std::size_t workers =
      std::min(static_cast<std::size_t>(shards),
               std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  const double barrier_wait = obs::global_registry()
                                  .snapshot()
                                  .at("sim.parallel.barrier_wait_s")
                                  .value;
  EXPECT_GE(barrier_wait, 0.0);
  EXPECT_LE(barrier_wait, static_cast<double>(workers) * wall)
      << workers << " workers, run wall " << wall << " s";
}

}  // namespace
}  // namespace krak::sim
