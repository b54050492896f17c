#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "network/msgmodel.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"
#include "util/error.hpp"

namespace krak::sim {
namespace {

/// 1 us latency, 1 ns/byte, zero host overheads: hand-checkable times.
Simulator make_simulator(Program& program, double max_sim_seconds = 0.0) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  config.max_sim_seconds = max_sim_seconds;
  return Simulator(program, network::make_hockney_model(1e-6, 1e9), config);
}

/// Scripted injector: a fixed delay on one compute op, a fixed recovery
/// cost on another, and an optional "lose every message" switch. Gives
/// the tests exact control without going through a FaultPlan.
class ScriptedInjector final : public FaultInjector {
 public:
  RankId delay_rank = -1;
  std::int64_t delay_index = 0;
  double delay_seconds = 0.0;
  RankId recovery_rank = -1;
  std::int64_t recovery_index = 0;
  double recovery_seconds = 0.0;
  bool lose_everything = false;

  void on_run_start(std::int32_t /*ranks*/) override {}
  double compute_delay(RankId rank, std::int64_t index,
                       double /*duration*/) override {
    return (rank == delay_rank && index == delay_index) ? delay_seconds : 0.0;
  }
  double recovery_delay(RankId rank, std::int64_t index,
                        double /*now*/) override {
    return (rank == recovery_rank && index == recovery_index)
               ? recovery_seconds
               : 0.0;
  }
  MessageFate message_fate(RankId /*from*/, RankId /*to*/, double /*bytes*/,
                           std::int64_t /*send_index*/) override {
    MessageFate fate;
    fate.lost = lose_everything;
    return fate;
  }
};

TEST(SimulatorFaults, InjectedDelayPreservesTimeIdentityExactly) {
  StoredProgram program({{Op::compute(1.0), Op::allreduce(8.0)},
                         {Op::compute(1.0), Op::allreduce(8.0)}});
  Simulator sim = make_simulator(program);
  ScriptedInjector injector;
  injector.delay_rank = 0;
  injector.delay_index = 0;
  injector.delay_seconds = 0.25;
  sim.set_fault_injector(&injector);
  const SimResult result = sim.run();

  ASSERT_FALSE(result.failed());
  EXPECT_DOUBLE_EQ(result.breakdown[0].fault_delay, 0.25);
  EXPECT_DOUBLE_EQ(result.breakdown[1].fault_delay, 0.0);
  // The delayed rank reaches the reduction 0.25 s late; the healthy rank
  // absorbs that as collective_wait (the delay propagated).
  EXPECT_DOUBLE_EQ(result.breakdown[1].collective_wait, 0.25);
  // finish = compute + p2p + collective + fault, bit-exact per rank.
  for (std::int32_t rank = 0; rank < 2; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    EXPECT_DOUBLE_EQ(result.breakdown[r].total_seconds(),
                     result.finish_times[r]);
  }
  EXPECT_EQ(result.faults.injections, 1);
  EXPECT_DOUBLE_EQ(result.faults.fault_delay_seconds, 0.25);
}

TEST(SimulatorFaults, RecoveryIsChargedSeparatelyFromDelay) {
  StoredProgram program({{Op::compute(1.0), Op::compute(1.0)}});
  Simulator sim = make_simulator(program);
  ScriptedInjector injector;
  injector.recovery_rank = 0;
  injector.recovery_index = 1;
  injector.recovery_seconds = 3.0;
  sim.set_fault_injector(&injector);
  const SimResult result = sim.run();

  EXPECT_DOUBLE_EQ(result.breakdown[0].recovery, 3.0);
  EXPECT_DOUBLE_EQ(result.breakdown[0].fault_delay, 0.0);
  EXPECT_DOUBLE_EQ(result.breakdown[0].fault_seconds(), 3.0);
  EXPECT_DOUBLE_EQ(result.finish_times[0], 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(result.breakdown[0].total_seconds(),
                   result.finish_times[0]);
  EXPECT_DOUBLE_EQ(result.faults.recovery_seconds, 3.0);
}

TEST(SimulatorFaults, EmptyInjectorReproducesBaselineBitForBit) {
  const auto run_once = [](FaultInjector* injector) {
    StoredProgram program(
        {{Op::compute(0.5), Op::isend(1, 4096.0, 3), Op::allreduce(8.0)},
         {Op::recv(0, 4096.0, 3), Op::allreduce(8.0)}});
    Simulator sim = make_simulator(program);
    if (injector != nullptr) sim.set_fault_injector(injector);
    return sim.run();
  };
  ScriptedInjector noop;  // all defaults: injects nothing
  const SimResult baseline = run_once(nullptr);
  const SimResult with_noop = run_once(&noop);
  EXPECT_EQ(baseline.makespan, with_noop.makespan);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(baseline.finish_times[r], with_noop.finish_times[r]);
    EXPECT_EQ(baseline.breakdown[r].total_seconds(),
              with_noop.breakdown[r].total_seconds());
  }
}

TEST(SimulatorFaults, WatchdogNamesTheBlockedOpOnDeadlock) {
  StoredProgram program(
      {{Op::compute(1.0)}, {Op::compute(0.5), Op::recv(0, 64.0, 9)}});
  Simulator sim = make_simulator(program);
  const SimResult result = sim.run();

  ASSERT_TRUE(result.failed());
  ASSERT_EQ(result.failures.size(), 1u);
  const SimFailure& failure = result.failures[0];
  EXPECT_EQ(failure.kind, SimFailure::Kind::kDeadlock);
  EXPECT_EQ(failure.rank, 1);
  ASSERT_TRUE(failure.has_op);
  EXPECT_EQ(failure.op, OpKind::kRecv);
  EXPECT_EQ(failure.peer, 0);
  EXPECT_EQ(failure.tag, 9);
  EXPECT_EQ(failure.op_index, 1u);
  // The rendered diagnosis keeps its fixed wording.
  const std::string text = failure.to_string();
  EXPECT_NE(text.find("simulation deadlock"), std::string::npos) << text;
  EXPECT_NE(text.find("rank 1"), std::string::npos) << text;
  EXPECT_NE(text.find("recv"), std::string::npos) << text;
  // The healthy rank's timing survives the failed run.
  EXPECT_DOUBLE_EQ(result.finish_times[0], 1.0);
}

TEST(SimulatorFaults, LostMessageIsDiagnosedAtTheStarvedReceiver) {
  StoredProgram program({{Op::isend(1, 128.0, 5)}, {Op::recv(0, 128.0, 5)}});
  Simulator sim = make_simulator(program);
  ScriptedInjector injector;
  injector.lose_everything = true;
  sim.set_fault_injector(&injector);
  const SimResult result = sim.run();

  ASSERT_TRUE(result.failed());
  const SimFailure& failure = result.failures[0];
  EXPECT_EQ(failure.kind, SimFailure::Kind::kLostMessage);
  EXPECT_EQ(failure.rank, 1);
  ASSERT_TRUE(failure.has_op);
  EXPECT_EQ(failure.op, OpKind::kRecv);
  EXPECT_EQ(failure.peer, 0);
  EXPECT_EQ(failure.tag, 5);
  EXPECT_NE(failure.to_string().find("lost"), std::string::npos)
      << failure.to_string();
  EXPECT_EQ(result.faults.messages_lost, 1);
}

TEST(SimulatorFaults, TimeLimitStopsARunawayRank) {
  StoredProgram program({{Op::compute(1.0), Op::allreduce(8.0)},
                         {Op::compute(1.0), Op::allreduce(8.0)}});
  Simulator sim = make_simulator(program, /*max_sim_seconds=*/10.0);
  ScriptedInjector injector;
  injector.delay_rank = 0;
  injector.delay_index = 0;
  injector.delay_seconds = 1e9;  // unbounded-delay fault plan
  sim.set_fault_injector(&injector);
  const SimResult result = sim.run();

  ASSERT_TRUE(result.failed());
  bool saw_time_limit = false;
  for (const SimFailure& failure : result.failures) {
    if (failure.kind == SimFailure::Kind::kTimeLimit) {
      saw_time_limit = true;
      EXPECT_EQ(failure.rank, 0);
    }
  }
  EXPECT_TRUE(saw_time_limit);
}

TEST(SimulatorFaults, SameSeedAndPlanGiveBitIdenticalBreakdowns) {
  fault::FaultPlan plan;
  plan.seed = 2026;
  fault::MessageFaultModel model;
  model.drop_probability = 0.3;
  model.retransmit_timeout_s = 5e-5;
  model.max_retries = 8;
  plan.message_faults.push_back(model);
  plan.slowdowns.push_back({fault::kAllRanks, 1.1});
  fault::NoiseBurst burst;
  burst.rank = fault::kAllRanks;
  burst.period_s = 0.3;
  burst.duration_s = 0.01;
  plan.noise.push_back(burst);

  StoredProgram program(4);
  for (RankId rank = 0; rank < 4; ++rank) {
    const RankId next = (rank + 1) % 4;
    const RankId prev = (rank + 3) % 4;
    program.set(rank, {Op::compute(0.5 + 0.1 * rank),
                       Op::isend(next, 2048.0, 1), Op::recv(prev, 2048.0, 1),
                       Op::allreduce(8.0), Op::compute(0.25),
                       Op::isend(prev, 512.0, 2), Op::recv(next, 512.0, 2),
                       Op::allreduce(8.0)});
  }
  const auto run_once = [&plan, &program]() {
    Simulator sim = make_simulator(program);
    fault::InjectionEngine engine(plan, 4, /*phases_per_iteration=*/1);
    sim.set_fault_injector(&engine);
    return sim.run();
  };

  const SimResult first = run_once();
  const SimResult second = run_once();
  ASSERT_FALSE(first.failed());
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.faults.injections, second.faults.injections);
  EXPECT_EQ(first.faults.retransmits, second.faults.retransmits);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(first.finish_times[r], second.finish_times[r]);
    EXPECT_EQ(first.breakdown[r].compute, second.breakdown[r].compute);
    EXPECT_EQ(first.breakdown[r].fault_delay, second.breakdown[r].fault_delay);
    EXPECT_EQ(first.breakdown[r].recv_wait, second.breakdown[r].recv_wait);
    // The identity still holds with every fault class active at once.
    EXPECT_DOUBLE_EQ(first.breakdown[r].total_seconds(),
                     first.finish_times[r]);
  }
}

}  // namespace
}  // namespace krak::sim
