#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "network/collectives.hpp"
#include "network/msgmodel.hpp"
#include "stored_program.hpp"
#include "util/error.hpp"

namespace krak::sim {
namespace {

/// 1 us latency, 1 ns/byte, zero host overheads: hand-checkable times.
Simulator make_simulator(Program& program) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  return Simulator(program, network::make_hockney_model(1e-6, 1e9), config);
}

/// Rank 0 runs one op; every other rank runs none. Reports any rank
/// count without sizing anything from it.
class OneOpProgram final : public Program {
 public:
  OneOpProgram(std::int32_t ranks, Op op) : ranks_(ranks), op_(op) {}
  [[nodiscard]] std::int32_t ranks() const override { return ranks_; }
  [[nodiscard]] std::size_t size(RankId rank) const override {
    return rank == 0 ? 1 : 0;
  }
  [[nodiscard]] Op op(RankId /*rank*/, std::size_t /*pc*/) override {
    return op_;
  }

 private:
  std::int32_t ranks_;
  Op op_;
};

TEST(Simulator, NonPositiveRankCountIsInvalidArgument) {
  // The program's rank count is checked at construction.
  for (const std::int32_t ranks : {0, -1, -4096}) {
    OneOpProgram program(ranks, Op::compute(1.0));
    EXPECT_THROW(static_cast<void>(make_simulator(program)),
                 util::InvalidArgument)
        << ranks;
  }
}

TEST(Simulator, ComputeAdvancesClock) {
  StoredProgram program({{Op::compute(2.0), Op::compute(0.5)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_DOUBLE_EQ(result.makespan, 2.5);
  EXPECT_DOUBLE_EQ(result.finish_times[0], 2.5);
}

TEST(Simulator, EmptyScheduleFinishesAtZero) {
  StoredProgram program(2);
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(Simulator, PingMessageArrivesAfterTmsg) {
  // 1000 bytes: Tmsg = 1 us + 1 us = 2 us.
  StoredProgram program({{Op::isend(1, 1000.0, 7)}, {Op::recv(0, 1000.0, 7)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 2e-6, 1e-12);
  EXPECT_EQ(result.traffic.point_to_point_messages, 1);
  EXPECT_DOUBLE_EQ(result.traffic.point_to_point_bytes, 1000.0);
}

TEST(Simulator, RecvBlocksUntilSenderPosts) {
  StoredProgram program(
      {{Op::compute(5.0), Op::isend(1, 0.0, 1)}, {Op::recv(0, 0.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  // Receiver waits for the sender's compute + latency.
  EXPECT_NEAR(result.finish_times[1], 5.0 + 1e-6, 1e-9);
}

TEST(Simulator, EarlyMessageDoesNotBlockLateReceiver) {
  StoredProgram program(
      {{Op::isend(1, 0.0, 1)}, {Op::compute(10.0), Op::recv(0, 0.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 10.0, 1e-9);
}

TEST(Simulator, SendsToMultipleNeighborsOverlap) {
  // The core semantic of Section 4: async sends to different neighbors
  // overlap on the wire. Three 1 MB messages (Tmsg ~ 1 ms each) from one
  // sender must NOT take 3 ms end to end.
  const double bytes = 1e6;  // Tmsg = 1 us + 1 ms
  StoredProgram program({{Op::isend(1, bytes, 1), Op::isend(2, bytes, 1),
                          Op::isend(3, bytes, 1), Op::wait_all_sends()},
                         {Op::recv(0, bytes, 1)},
                         {Op::recv(0, bytes, 1)},
                         {Op::recv(0, bytes, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_LT(result.makespan, 1.2e-3);  // ~1 ms, not ~3 ms
}

TEST(Simulator, WaitAllSendsCoversNicHandoff) {
  StoredProgram program({{Op::isend(1, 100.0, 1), Op::wait_all_sends()},
                         {Op::recv(0, 100.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  // Sender completes after the start-up latency (1 us), receiver after
  // the full message time.
  EXPECT_NEAR(result.finish_times[0], 1e-6, 1e-12);
  EXPECT_GE(result.finish_times[1], result.finish_times[0]);
}

TEST(Simulator, WaitAllSendsWaitsForTheLatestCompletion) {
  // A send completes locally at the start of its injection plus its
  // start-up latency. NIC contention staggers the injections of three
  // sends of different sizes, and a latency growing 10 ns per byte
  // makes the middle, largest send complete last.
  util::PiecewiseLinear latency;
  latency.add_point(0.0, 1e-6);
  latency.add_point(1e4, 101e-6);
  util::PiecewiseLinear byte_cost;
  byte_cost.add_point(1.0, 1e-9);
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  StoredProgram program({{Op::isend(1, 1000.0, 1), Op::isend(2, 3000.0, 1),
                          Op::isend(3, 2000.0, 1), Op::compute(10e-6),
                          Op::wait_all_sends(), Op::record(0),
                          Op::wait_all_sends(), Op::record(1)},
                         {Op::recv(0, 1000.0, 1)},
                         {Op::recv(0, 3000.0, 1)},
                         {Op::recv(0, 2000.0, 1)}});
  Simulator sim(program, network::MessageCostModel(latency, byte_cost),
                config);
  NicConfig nic;
  nic.pes_per_node = 4;
  nic.injection_bandwidth = 1e9;  // 1 us per 1000 bytes
  sim.set_nic(nic);
  const SimResult result = sim.run();
  // Injections start at 0, 1 and 4 us; the sends complete at 11, 32
  // and 25 us.
  const double latest = 1e-6 + latency(3000.0);
  EXPECT_EQ(result.records[0].at(0), latest);
  EXPECT_EQ(result.breakdown[0].send_wait, latest - 10e-6);
  // With nothing pending, the second wait moves neither the clock nor
  // the wait.
  EXPECT_EQ(result.records[0].at(1), latest);
  EXPECT_EQ(result.finish_times[0], latest);
}

TEST(Simulator, MessagesMatchByTag) {
  // Two messages with different tags received in reverse order.
  StoredProgram program({{Op::isend(1, 10.0, 1), Op::isend(1, 2000.0, 2)},
                         {Op::recv(0, 2000.0, 2), Op::recv(0, 10.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_GT(result.makespan, 0.0);  // completed without deadlock
}

TEST(Simulator, FifoMatchingWithinSameTag) {
  StoredProgram program(
      {{Op::isend(1, 10.0, 1), Op::compute(1.0), Op::isend(1, 10.0, 1)},
       {Op::recv(0, 10.0, 1), Op::record(0), Op::recv(0, 10.0, 1),
        Op::record(1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  const double first = result.records[1].at(0);
  const double second = result.records[1].at(1);
  EXPECT_LT(first, 1.0);       // first message arrives immediately
  EXPECT_GT(second, 1.0);      // second waits for sender's compute
}

TEST(Simulator, SendRecvOverheadsCharged) {
  SimConfig config;
  config.send_overhead = 0.5;
  config.recv_overhead = 0.25;
  StoredProgram program({{Op::isend(1, 1.0, 1)}, {Op::recv(0, 1.0, 1)}});
  Simulator sim(program, network::make_hockney_model(0.0, 1e30), config);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[0], 0.5, 1e-12);
  EXPECT_NEAR(result.finish_times[1], 0.75, 1e-12);
}

TEST(Simulator, AllreduceSynchronizesClocks) {
  StoredProgram program(
      {{Op::compute(1.0), Op::allreduce(8.0), Op::record(0)},
       {Op::compute(5.0), Op::allreduce(8.0), Op::record(0)},
       {Op::compute(3.0), Op::allreduce(8.0), Op::record(0)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  // All ranks leave at max entry (5.0) + 2*depth(3)*Tmsg(8).
  const double expected = 5.0 + 2.0 * 2.0 * (1e-6 + 8e-9);
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(result.records[static_cast<std::size_t>(r)].at(0), expected,
                1e-9);
  }
  EXPECT_EQ(result.traffic.allreduces, 1);
}

TEST(Simulator, BroadcastAndGatherCountedSeparately) {
  const std::vector<Op> ops = {Op::broadcast(4.0), Op::gather(32.0),
                               Op::allreduce(8.0)};
  StoredProgram program({ops, ops});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_EQ(result.traffic.broadcasts, 1);
  EXPECT_EQ(result.traffic.gathers, 1);
  EXPECT_EQ(result.traffic.allreduces, 1);
}

TEST(Simulator, SingleRankCollectivesAreFree) {
  StoredProgram program(
      {{Op::compute(1.0), Op::allreduce(8.0), Op::broadcast(4.0)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_DOUBLE_EQ(result.makespan, 1.0);
}

TEST(Simulator, DeliveryDoesNotWakeCollectiveBlockedRank) {
  // Rank 1 is parked in an allreduce when rank 0's message arrives; it
  // must stay parked until every rank entered the collective, then
  // receive the message afterwards.
  StoredProgram program(
      {{Op::isend(1, 10.0, 5), Op::allreduce(8.0)},
       {Op::allreduce(8.0), Op::recv(0, 10.0, 5), Op::record(0)},
       {Op::compute(4.0), Op::allreduce(8.0)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  // Rank 1 leaves the allreduce no earlier than rank 2's entry at 4.0.
  EXPECT_GE(result.records[1].at(0), 4.0);
}

/// The one-line report of the run's first failure; fails the test when
/// the run finished.
std::string first_failure(const SimResult& result) {
  EXPECT_FALSE(result.failures.empty());
  return result.failures.empty() ? "" : result.failures.front().to_string();
}

TEST(Simulator, DeadlockDetectedAndReported) {
  StoredProgram program({{Op::recv(1, 1.0, 1)}, {Op::recv(0, 1.0, 1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(result.failures[r].kind, SimFailure::Kind::kDeadlock);
    EXPECT_EQ(result.failures[r].rank, static_cast<RankId>(r));
  }
}

TEST(Simulator, RecvDeadlockNamesTheBlockingOp) {
  StoredProgram program({{Op::recv(1, 1.0, 7)}, {Op::recv(0, 1.0, 9)}});
  Simulator sim = make_simulator(program);
  const std::string what = first_failure(sim.run());
  EXPECT_NE(what.find("recv"), std::string::npos) << what;
  EXPECT_NE(what.find("tag"), std::string::npos) << what;
}

TEST(Simulator, CollectiveDeadlockNamesTheCollective) {
  // Regression: enter_collective advances pc past the collective before
  // parking the rank, so a report built from pc named the op after the
  // collective (or fell past the schedule's end and named nothing).
  // Rank 0 computes, then parks in an allreduce rank 1 never joins.
  StoredProgram program(
      {{Op::compute(1.0), Op::allreduce(8.0)}, {Op::compute(2.0)}});
  Simulator sim = make_simulator(program);
  const std::string what = first_failure(sim.run());
  EXPECT_NE(what.find("allreduce"), std::string::npos) << what;
  EXPECT_NE(what.find("blocked at op 1"), std::string::npos) << what;
  EXPECT_NE(what.find("waiting for all ranks to enter the collective"),
            std::string::npos)
      << what;
}

TEST(Simulator, TrailingCollectiveDeadlockStillNamesIt) {
  // The collective is the schedule's last op, so the advanced pc points
  // one past the end — the old report could not name any op at all.
  StoredProgram program(2);
  program.set(0, {Op::broadcast(4.0)});
  Simulator sim = make_simulator(program);
  const std::string what = first_failure(sim.run());
  EXPECT_NE(what.find("broadcast"), std::string::npos) << what;
  EXPECT_NE(what.find("blocked at op 0"), std::string::npos) << what;
}

TEST(Simulator, MismatchedCollectiveKindThrows) {
  StoredProgram program({{Op::allreduce(8.0)}, {Op::broadcast(8.0)}});
  Simulator sim = make_simulator(program);
  EXPECT_THROW((void)sim.run(), util::KrakError);
}

TEST(Simulator, MissingCollectiveParticipantIsDeadlock) {
  StoredProgram program(2);
  program.set(0, {Op::allreduce(8.0)});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures.front().kind, SimFailure::Kind::kDeadlock);
  EXPECT_EQ(result.failures.front().rank, 0);
  EXPECT_EQ(result.finish_times[1], 0.0);  // rank 1 had nothing to run
}

TEST(Simulator, ProgramOpsAreCheckedAsTheyAreRead) {
  // Every op is checked as the engine reads it: a message to the rank
  // itself or to no rank, or a negative duration or payload, throws
  // InvalidArgument.
  for (const Op& bad :
       {Op::isend(0, 1.0, 1), Op::recv(5, 1.0, 1), Op::isend(1, -1.0, 1),
        Op::compute(-1.0), Op::allreduce(-8.0)}) {
    OneOpProgram program(2, bad);
    Simulator sim = make_simulator(program);
    EXPECT_THROW((void)sim.run(), util::InvalidArgument)
        << op_kind_name(bad.kind());
  }
  OneOpProgram program(2, Op::compute(2.0));
  Simulator sim = make_simulator(program);
  EXPECT_DOUBLE_EQ(sim.run().makespan, 2.0);
}

TEST(Simulator, TagsAnOpCannotHoldAreRefused) {
  // An op holds its tag in 16 bits: [0, 32767], the least MPI_TAG_UB
  // the MPI standard guarantees.
  EXPECT_THROW(static_cast<void>(Op::isend(1, 8.0, 40000)),
               util::InvalidArgument);
  EXPECT_THROW(static_cast<void>(Op::recv(0, 8.0, -1)),
               util::InvalidArgument);
  // Both ends of the range still match.
  StoredProgram program(
      {{Op::isend(1, 8.0, 32767), Op::isend(1, 8.0, 0)},
       {Op::recv(0, 8.0, 0), Op::recv(0, 8.0, 32767)}});
  Simulator sim = make_simulator(program);
  EXPECT_EQ(sim.run().traffic.point_to_point_messages, 2);
}

TEST(Simulator, RecordCapturesPhaseBoundaries) {
  StoredProgram program(
      {{Op::compute(1.0), Op::record(0), Op::compute(2.0), Op::record(1)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();
  EXPECT_DOUBLE_EQ(result.records[0].at(0), 1.0);
  EXPECT_DOUBLE_EQ(result.records[0].at(1), 3.0);
}

TEST(Simulator, RunIsRepeatable) {
  StoredProgram program(
      {{Op::compute(1.0), Op::isend(1, 100.0, 1), Op::allreduce(4.0)},
       {Op::recv(0, 100.0, 1), Op::allreduce(4.0)}});
  Simulator sim = make_simulator(program);
  const SimResult a = sim.run();
  const SimResult b = sim.run();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.traffic.point_to_point_messages,
            b.traffic.point_to_point_messages);
}

/// A 2-rank exchange of 32 point-to-point messages; every arrival is
/// its own event, so the run fires well over 32 events in total.
StoredProgram chatty_program() {
  std::vector<Op> sender;
  std::vector<Op> receiver;
  for (std::int32_t m = 0; m < 32; ++m) {
    sender.push_back(Op::isend(1, 8.0, m));
    sender.push_back(Op::wait_all_sends());
    receiver.push_back(Op::recv(0, 8.0, m));
  }
  return StoredProgram({std::move(sender), std::move(receiver)});
}

/// Runs `program` under an event budget of `max_events`.
Simulator make_chatty_simulator(Program& program, std::size_t max_events) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  config.max_events = max_events;
  return Simulator(program, network::make_hockney_model(1e-6, 1e9), config);
}

TEST(Simulator, EventLimitSurfacesAsStructuredFailure) {
  StoredProgram program = chatty_program();
  Simulator sim = make_chatty_simulator(program, /*max_events=*/4);
  const SimResult result = sim.run();
  ASSERT_FALSE(result.failures.empty());
  const SimFailure& failure = result.failures.front();
  EXPECT_EQ(failure.kind, SimFailure::Kind::kEventLimit);
  EXPECT_EQ(failure.rank, -1);  // run-level diagnosis, not a rank's
  EXPECT_EQ(sim_failure_kind_name(failure.kind), "event-limit");
  // The historical runaway-guard message stays grep-compatible.
  EXPECT_NE(failure.to_string().find("max_events"), std::string::npos);
  EXPECT_NE(failure.detail.find("budget 4"), std::string::npos);
}

TEST(Simulator, GenerousEventLimitDoesNotTrip) {
  StoredProgram program = chatty_program();
  Simulator sim = make_chatty_simulator(program, /*max_events=*/1 << 20);
  const SimResult result = sim.run();
  EXPECT_TRUE(result.failures.empty());
  EXPECT_GT(result.makespan, 0.0);
}

TEST(Simulator, EventLimitAfterLastEntryReportsCompletion) {
  // The oracle charges a collective at its last entry, as the sharded
  // engine's barrier does, so a budget that trips while the release
  // steps are still queued leaves every rank at the completion.
  StoredProgram program({{Op::allreduce(8.0), Op::compute(1.0)},
                         {Op::compute(0.5), Op::allreduce(8.0),
                          Op::compute(1.0)}});
  // Two kick-off steps fire; the two release steps stay queued.
  Simulator sim = make_chatty_simulator(program, /*max_events=*/2);
  const SimResult result = sim.run();
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures.front().kind, SimFailure::Kind::kEventLimit);
  const double cost =
      network::CollectiveModel(network::make_hockney_model(1e-6, 1e9))
          .fan_in_fan_out(2, 8.0);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(result.finish_times[r], 0.5 + cost) << "rank " << r;
    EXPECT_EQ(result.breakdown[r].collective_cost, cost) << "rank " << r;
    EXPECT_DOUBLE_EQ(result.breakdown[r].total_seconds(),
                     result.finish_times[r])
        << "rank " << r;
  }
  EXPECT_DOUBLE_EQ(result.breakdown[0].collective_wait, 0.5);
  EXPECT_NEAR(result.breakdown[1].collective_wait, 0.0, 1e-15);
}

}  // namespace
}  // namespace krak::sim
