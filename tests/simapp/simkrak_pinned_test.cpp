// Pinned outputs of SimKrak. Each case's full result — makespan, phase
// times, events, traffic, fault delay, failures and every rank's
// breakdown — is folded into one digest (result_digest.hpp) and compared
// with the value recorded when SimKrak still had two schedule builders
// (a per-iteration template replay and a direct build) that agreed bit
// for bit on every case. Every case runs on the serial engine and on
// the parallel one at 8 threads, which must match the same digest. Any
// change here is a silent change to every measured campaign value and
// must be deliberate.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <ios>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "result_digest.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

struct Fixture {
  mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  network::MachineConfig machine = network::make_es45_qsnet();
  ComputationCostEngine engine;

  [[nodiscard]] SimKrakResult run(std::int32_t pes,
                                  const SimKrakOptions& options) const {
    const partition::Partition part = partition::partition_deck(
        deck, pes, partition::PartitionMethod::kMultilevel, 1);
    return SimKrak(deck, part, machine, engine, options).run();
  }
};

struct DigestCase {
  std::int32_t pes;
  std::uint64_t digest;
};

void expect_digests(const SimKrakOptions& options,
                    std::initializer_list<DigestCase> cases) {
  const Fixture f;
  for (const DigestCase& c : cases) {
    for (const std::int32_t threads : {1, 8}) {
      SimKrakOptions threaded = options;
      threaded.sim_threads = threads;
      const std::uint64_t digest = result_digest(f.run(c.pes, threaded));
      EXPECT_EQ(digest, c.digest) << c.pes << " PEs, " << threads
                                  << " threads: digest 0x" << std::hex
                                  << digest;
    }
  }
}

TEST(SimKrakPinned, NoisyRunsMatchDigestsAcrossPeCounts) {
  SimKrakOptions options;
  options.iterations = 3;  // noise on: 3 distinct draws per phase
  expect_digests(options, {{16, 0x4749f9be38ee24bdull},
                           {64, 0x773d175fb4316f88ull},
                           {128, 0x9b6d5cd17e1b506eull}});
}

TEST(SimKrakPinned, NoiseFreeRunMatchesDigest) {
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;
  expect_digests(options, {{64, 0xe8ccbcf1e1d2316bull}});
}

TEST(SimKrakPinned, FaultPlanRunsMatchDigests) {
  SimKrakOptions options;
  options.iterations = 3;
  fault::OneOffDelay delay;
  delay.rank = 1;
  delay.phase = 3;
  delay.iteration = 1;
  delay.seconds = 0.01;
  options.faults.delays.push_back(delay);
  options.faults.slowdowns.push_back({fault::kAllRanks, 1.02});
  options.faults.seed = 7;
  expect_digests(options, {{16, 0xb3fd07d3d92abea3ull},
                           {64, 0xb85c4e366ead4cf8ull},
                           {128, 0xeaba7209d6531b4aull}});
}

}  // namespace
}  // namespace krak::simapp
