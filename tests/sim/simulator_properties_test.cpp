#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "network/msgmodel.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"
#include "util/rng.hpp"

namespace krak::sim {
namespace {

/// Random ring programs: every rank computes a random amount, sends to
/// its right neighbor, receives from its left, then allreduces. These
/// always terminate and exercise every op kind, making them good
/// subjects for metamorphic properties.
std::vector<Op> ring_schedule(RankId rank, std::int32_t ranks,
                              util::Rng& rng) {
  std::vector<Op> schedule;
  const RankId right = (rank + 1) % ranks;
  const RankId left = (rank + ranks - 1) % ranks;
  for (int round = 0; round < 4; ++round) {
    schedule.push_back(Op::compute(rng.next_double(0.0, 1e-3)));
    const double bytes = std::floor(rng.next_double(1.0, 4096.0));
    schedule.push_back(Op::isend(right, bytes, round));
    schedule.push_back(Op::wait_all_sends());
    schedule.push_back(Op::recv(left, bytes, round));
    schedule.push_back(Op::allreduce(8.0));
  }
  return schedule;
}

/// Every rank's ring_schedule, each drawn from its own split of a
/// generator seeded with `seed`.
StoredProgram ring_program(std::int32_t ranks, std::uint64_t seed) {
  StoredProgram program(ranks);
  util::Rng rng(seed);
  for (RankId r = 0; r < ranks; ++r) {
    util::Rng rank_rng = rng.split();
    program.set(r, ring_schedule(r, ranks, rank_rng));
  }
  return program;
}

class RingTest : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(RingTest, CompletesAndIsDeterministic) {
  const std::int32_t ranks = GetParam();
  StoredProgram program_a = ring_program(ranks, 77);
  StoredProgram program_b = ring_program(ranks, 77);
  Simulator a(program_a, network::make_qsnet1_model());
  Simulator b(program_b, network::make_qsnet1_model());
  const SimResult ra = a.run();
  const SimResult rb = b.run();
  EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.traffic.point_to_point_messages,
            rb.traffic.point_to_point_messages);
  EXPECT_EQ(ra.traffic.point_to_point_messages, 4 * ranks);
  EXPECT_EQ(ra.traffic.allreduces, 4);
}

TEST_P(RingTest, MakespanAtLeastCriticalRankWork) {
  // No rank can finish before its own compute time sums.
  const std::int32_t ranks = GetParam();
  StoredProgram program = ring_program(ranks, 5);
  std::vector<double> work(static_cast<std::size_t>(ranks), 0.0);
  for (RankId r = 0; r < ranks; ++r) {
    for (std::size_t pc = 0; pc < program.size(r); ++pc) {
      const Op op = program.op(r, pc);
      if (op.kind() == OpKind::kCompute) {
        work[static_cast<std::size_t>(r)] += op.duration();
      }
    }
  }
  Simulator sim(program, network::make_qsnet1_model());
  const SimResult result = sim.run();
  const double max_work = *std::max_element(work.begin(), work.end());
  EXPECT_GE(result.makespan, max_work);
  for (RankId r = 0; r < ranks; ++r) {
    EXPECT_GE(result.finish_times[static_cast<std::size_t>(r)],
              work[static_cast<std::size_t>(r)]);
  }
}

TEST_P(RingTest, SlowerNetworkNeverFaster) {
  StoredProgram program = ring_program(GetParam(), 13);
  const auto run_with = [&](const network::MessageCostModel& net) {
    Simulator sim(program, net);
    return sim.run().makespan;
  };
  const double fast = run_with(network::make_qsnet1_model());
  const double slow = run_with(network::make_qsnet1_model().scaled(4.0, 4.0));
  EXPECT_GE(slow, fast);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingTest,
                         ::testing::Values(2, 3, 5, 8, 16, 33));

TEST(SimulatorProperties, AddingComputeDelaysMakespanExactly) {
  // With a single rank, inserting extra compute shifts completion by
  // exactly that amount.
  StoredProgram program_a({{Op::compute(1.0)}});
  StoredProgram program_b({{Op::compute(1.0), Op::compute(0.25)}});
  Simulator a(program_a, network::make_qsnet1_model());
  Simulator b(program_b, network::make_qsnet1_model());
  EXPECT_NEAR(b.run().makespan - a.run().makespan, 0.25, 1e-12);
}

TEST(SimulatorProperties, CollectiveCountIndependentOfEntryOrder) {
  // Whichever rank reaches the allreduce last, exactly one collective
  // happens and all ranks leave together.
  for (int slow_rank = 0; slow_rank < 3; ++slow_rank) {
    StoredProgram program(3);
    for (RankId r = 0; r < 3; ++r) {
      program.set(r, {Op::compute(r == slow_rank ? 1.0 : 0.01),
                      Op::allreduce(8.0), Op::record(0)});
    }
    Simulator sim(program, network::make_qsnet1_model());
    const SimResult result = sim.run();
    EXPECT_EQ(result.traffic.allreduces, 1);
    EXPECT_DOUBLE_EQ(result.records[0].at(0), result.records[1].at(0));
    EXPECT_DOUBLE_EQ(result.records[1].at(0), result.records[2].at(0));
    EXPECT_GE(result.records[0].at(0), 1.0);
  }
}

}  // namespace
}  // namespace krak::sim
