#include <gtest/gtest.h>

#include "network/msgmodel.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"
#include "util/error.hpp"

namespace krak::sim {
namespace {

/// Zero-latency, instant-wire network so only NIC serialization shows.
Simulator nic_simulator(Program& program, NicConfig nic) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  Simulator sim(program, network::make_hockney_model(0.0, 1e30), config);
  sim.set_nic(nic);
  return sim;
}

TEST(Nic, DisabledByDefaultMessagesDontSerialize) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  StoredProgram program({{Op::isend(1, 1e6, 1), Op::isend(2, 1e6, 2)},
                         {Op::recv(0, 1e6, 1)},
                         {Op::recv(0, 1e6, 2)}});
  Simulator sim(program, network::make_hockney_model(0.0, 1e30), config);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.makespan, 0.0, 1e-12);
}

TEST(Nic, SameNodeSendsSerializeAtInjectionBandwidth) {
  NicConfig nic;
  nic.pes_per_node = 4;
  nic.injection_bandwidth = 1e6;  // 1 MB/s: 1 MB takes 1 s to inject
  // Ranks 0 and 1 share node 0; each sends 1 MB to ranks on node 1.
  StoredProgram program(6);
  program.set(0, {Op::isend(4, 1e6, 1)});
  program.set(1, {Op::isend(5, 1e6, 2)});
  program.set(4, {Op::recv(0, 1e6, 1), Op::record(0)});
  program.set(5, {Op::recv(1, 1e6, 2), Op::record(0)});
  Simulator sim = nic_simulator(program, nic);
  const SimResult result = sim.run();
  // One of the two messages waits ~1 s for the adapter.
  const double first = std::min(result.records[4].at(0), result.records[5].at(0));
  const double second = std::max(result.records[4].at(0), result.records[5].at(0));
  EXPECT_NEAR(first, 1.0, 1e-9);
  EXPECT_NEAR(second, 2.0, 1e-9);
}

TEST(Nic, DifferentNodesDoNotContend) {
  NicConfig nic;
  nic.pes_per_node = 1;  // every rank has its own adapter
  nic.injection_bandwidth = 1e6;
  StoredProgram program({{Op::isend(2, 1e6, 1)},
                         {Op::isend(3, 1e6, 2)},
                         {Op::recv(0, 1e6, 1), Op::record(0)},
                         {Op::recv(1, 1e6, 2), Op::record(0)}});
  Simulator sim = nic_simulator(program, nic);
  const SimResult result = sim.run();
  EXPECT_NEAR(result.records[2].at(0), 1.0, 1e-9);
  EXPECT_NEAR(result.records[3].at(0), 1.0, 1e-9);
}

TEST(Nic, SenderCpuDoesNotBlockOnInjection) {
  // Asynchronous sends: the CPU posts and moves on even when the
  // adapter is backed up.
  NicConfig nic;
  nic.pes_per_node = 2;
  nic.injection_bandwidth = 1e6;
  StoredProgram program(3);
  program.set(0, {Op::isend(2, 1e6, 1), Op::isend(2, 1e6, 2), Op::record(0)});
  program.set(2, {Op::recv(0, 1e6, 1), Op::recv(0, 1e6, 2)});
  Simulator sim = nic_simulator(program, nic);
  const SimResult result = sim.run();
  // The CPU finished posting both messages immediately...
  EXPECT_NEAR(result.records[0].at(0), 0.0, 1e-9);
  // ...while the wire delivered the second one only after ~2 s.
  EXPECT_NEAR(result.makespan, 2.0, 1e-9);
}

TEST(Nic, ConfigValidated) {
  StoredProgram program(2);
  Simulator sim(program, network::make_qsnet1_model());
  NicConfig bad;
  bad.pes_per_node = 0;
  EXPECT_THROW(sim.set_nic(bad), util::InvalidArgument);
  bad.pes_per_node = 4;
  bad.injection_bandwidth = 0.0;
  EXPECT_THROW(sim.set_nic(bad), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::sim
