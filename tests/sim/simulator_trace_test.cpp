// Tests of the per-rank time decomposition (RankTimeBreakdown): the
// components must sum exactly to each rank's finish time, and the
// collective split must separate load-imbalance skew from tree cost.

#include <gtest/gtest.h>

#include "network/msgmodel.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"

namespace krak::sim {
namespace {

/// 1 us latency, 1 ns/byte; nonzero host overheads so every breakdown
/// component can be exercised.
Simulator make_simulator(Program& program) {
  SimConfig config;
  config.send_overhead = 0.5e-6;
  config.recv_overhead = 0.25e-6;
  return Simulator(program, network::make_hockney_model(1e-6, 1e9), config);
}

void expect_identity(const SimResult& result) {
  ASSERT_EQ(result.breakdown.size(), result.finish_times.size());
  for (std::size_t r = 0; r < result.breakdown.size(); ++r) {
    EXPECT_NEAR(result.breakdown[r].total_seconds(), result.finish_times[r],
                1e-12 + 1e-9 * result.finish_times[r])
        << "rank " << r;
  }
}

TEST(SimulatorTrace, ComputeOnlyBreakdownIsAllCompute) {
  StoredProgram program({{Op::compute(2.0), Op::compute(0.5)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_DOUBLE_EQ(result.breakdown[0].compute, 2.5);
  EXPECT_DOUBLE_EQ(result.breakdown[0].p2p_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(result.breakdown[0].collective_seconds(), 0.0);
  expect_identity(result);
}

TEST(SimulatorTrace, BreakdownSumsToFinishTimeForMixedSchedule) {
  // Every component nonzero somewhere: compute, isend (overhead + wait
  // in wait_all_sends), recv (overhead + blocked wait), and a skewed
  // allreduce (collective wait + cost).
  const double bytes = 1e6;  // Tmsg ~ 1 ms: real send waits
  StoredProgram program({{Op::compute(1.0), Op::isend(1, bytes, 1),
                          Op::wait_all_sends(), Op::allreduce(8.0)},
                         {Op::recv(0, bytes, 1), Op::compute(0.5),
                          Op::allreduce(8.0)},
                         {Op::compute(4.0), Op::allreduce(8.0)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  expect_identity(result);

  // Rank 1 started its recv at t=0 while rank 0 computed for 1 s first:
  // its recv wait covers that whole second plus the wire time.
  EXPECT_GT(result.breakdown[1].recv_wait, 1.0);
  EXPECT_DOUBLE_EQ(result.breakdown[1].recv_overhead, 0.25e-6);
  EXPECT_DOUBLE_EQ(result.breakdown[0].send_overhead, 0.5e-6);
  // Rank 2 entered the allreduce last (t=4): the others' collective
  // wait absorbs the skew, rank 2's is zero.
  EXPECT_NEAR(result.breakdown[2].collective_wait, 0.0, 1e-12);
  EXPECT_GT(result.breakdown[0].collective_wait, 1.0);
}

TEST(SimulatorTrace, CollectiveSplitsSkewFromTreeCost) {
  StoredProgram program({{Op::compute(1.0), Op::allreduce(8.0)},
                         {Op::compute(3.0), Op::allreduce(8.0)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  expect_identity(result);

  // Both ranks pay the same tree cost; only the early rank waits.
  const double cost0 = result.breakdown[0].collective_cost;
  const double cost1 = result.breakdown[1].collective_cost;
  EXPECT_DOUBLE_EQ(cost0, cost1);
  EXPECT_GT(cost0, 0.0);
  EXPECT_NEAR(result.breakdown[0].collective_wait, 2.0, 1e-9);
  EXPECT_NEAR(result.breakdown[1].collective_wait, 0.0, 1e-12);
  // Completion = max entry (3.0) + cost, identical on both ranks.
  EXPECT_NEAR(result.finish_times[0], 3.0 + cost0, 1e-9);
  EXPECT_NEAR(result.finish_times[1], 3.0 + cost1, 1e-9);
}

TEST(SimulatorTrace, SendWaitChargedInWaitAllSends) {
  const double bytes = 1e6;
  StoredProgram program({{Op::isend(1, bytes, 1), Op::wait_all_sends()},
                         {Op::recv(0, bytes, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  expect_identity(result);
  // The sender parks until the payload's NIC handoff (one latency).
  EXPECT_NEAR(result.breakdown[0].send_wait, 1e-6, 1e-12);
}

TEST(SimulatorTrace, EarlyArrivalChargesNoRecvWait) {
  StoredProgram program(
      {{Op::isend(1, 10.0, 1)}, {Op::compute(10.0), Op::recv(0, 10.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  expect_identity(result);
  EXPECT_DOUBLE_EQ(result.breakdown[1].recv_wait, 0.0);
}

TEST(SimulatorTrace, QueueDepthHighWaterMarkIsTracked) {
  StoredProgram program(4);
  for (RankId r = 0; r < 4; ++r) {
    program.set(r, {Op::compute(0.1 * (r + 1)), Op::allreduce(8.0)});
  }
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  // At minimum the four initial step events were queued together.
  EXPECT_GE(result.max_queue_depth, 4u);
  EXPECT_GT(result.events_processed, 4u);
}

TEST(SimulatorTrace, BreakdownResetsBetweenRuns) {
  StoredProgram program({{Op::compute(1.0), Op::allreduce(4.0)},
                         {Op::compute(2.0), Op::allreduce(4.0)}});
  Simulator sim = make_simulator(program);
  const SimResult first = sim.run();
  const SimResult second = sim.run();
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(first.breakdown[r].compute, second.breakdown[r].compute);
    EXPECT_DOUBLE_EQ(first.breakdown[r].collective_wait,
                     second.breakdown[r].collective_wait);
    EXPECT_DOUBLE_EQ(first.breakdown[r].collective_cost,
                     second.breakdown[r].collective_cost);
  }
  expect_identity(second);
}

}  // namespace
}  // namespace krak::sim
