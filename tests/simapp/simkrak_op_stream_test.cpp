// Pinned op streams of SimKrak's program. Every op of every rank, read
// in pc order, folds into one FNV-1a digest (the style of
// result_digest.hpp): the rank's op count, then per op its kind, the
// bit pattern of its value (a compute op's seconds or a payload's
// bytes), its peer, and its tag or, for a record op, its slot. The
// digests and op counts were recorded from the schedules SimKrak used
// to build and store before each run, so a change here is a change to
// the ops every rank executes, not only to the outputs they produce.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <ios>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "mesh/synthetic.hpp"
#include "network/machine.hpp"
#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

struct StreamDigest {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t ops = 0;
};

void mix(StreamDigest& digest, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    digest.hash ^= (bits >> (8 * byte)) & 0xffu;
    digest.hash *= 1099511628211ull;
  }
}

void mix_op(StreamDigest& digest, const sim::Op& op) {
  const bool record = op.kind() == sim::OpKind::kRecord;
  mix(digest, static_cast<std::uint64_t>(op.kind()));
  mix(digest, std::bit_cast<std::uint64_t>(
                  op.kind() == sim::OpKind::kCompute ? op.duration()
                                                     : op.bytes()));
  mix(digest, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(record ? -1 : op.peer())));
  mix(digest, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(record ? op.slot() : op.tag())));
  ++digest.ops;
}

StreamDigest stream_digest(sim::Program& program) {
  StreamDigest digest;
  for (sim::RankId rank = 0; rank < program.ranks(); ++rank) {
    const std::size_t size = program.size(rank);
    mix(digest, size);
    for (std::size_t pc = 0; pc < size; ++pc) {
      mix_op(digest, program.op(rank, pc));
    }
  }
  return digest;
}

struct SmallDeck {
  mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  network::MachineConfig machine = network::make_es45_qsnet();
  ComputationCostEngine engine;

  [[nodiscard]] SimKrak app(std::int32_t pes,
                            const SimKrakOptions& options) const {
    return SimKrak(deck,
                   partition::partition_deck(
                       deck, pes, partition::PartitionMethod::kMultilevel, 1),
                   machine, engine, options);
  }
};

struct StreamCase {
  std::int32_t pes;
  std::uint64_t ops;
  std::uint64_t digest;
};

void expect_streams(const SimKrakOptions& options,
                    std::initializer_list<StreamCase> cases) {
  const SmallDeck f;
  for (const StreamCase& c : cases) {
    const StreamDigest digest = stream_digest(*f.app(c.pes, options).program());
    EXPECT_EQ(digest.ops, c.ops) << c.pes << " PEs";
    EXPECT_EQ(digest.hash, c.digest)
        << c.pes << " PEs: digest 0x" << std::hex << digest.hash;
  }
}

TEST(SimKrakOpStream, NoisyStreamsMatchDigestsAcrossPeCounts) {
  SimKrakOptions options;
  options.iterations = 3;
  expect_streams(options, {{16, 10'440, 0x32b0d34a8ed969b0ull},
                           {64, 49'644, 0x345ed026ee6d8a36ull},
                           {128, 101'268, 0xb8c9e863da425741ull}});
}

TEST(SimKrakOpStream, NoiseFreeStreamMatchesDigest) {
  SimKrakOptions options;
  options.iterations = 2;
  options.enable_noise = false;
  expect_streams(options, {{64, 33'096, 0xaea0df8f0b3609f0ull}});
}

TEST(SimKrakOpStream, TwentyThousandRankStreamMatchesDigest) {
  const std::int32_t ranks = 20'480;
  const mesh::InputDeck deck =
      mesh::make_synthetic_deck(mesh::paper_synthetic_spec(1024, 128));
  const partition::Partition partition = partition::partition_deck(
      deck, ranks, partition::PartitionMethod::kRcb, /*seed=*/1);
  network::MachineConfig machine = network::make_es45_qsnet();
  machine.nodes = (ranks + machine.pes_per_node - 1) / machine.pes_per_node;
  const ComputationCostEngine engine;
  SimKrakOptions options;
  options.iterations = 1;
  options.hierarchical_network = true;
  options.nic_contention = true;

  const StreamDigest digest = stream_digest(
      *SimKrak(deck, partition, machine, engine, options).program());
  EXPECT_EQ(digest.ops, 4'205'928u);
  EXPECT_EQ(digest.hash, 0xcec417fe8448540full)
      << "digest 0x" << std::hex << digest.hash;
}

// The diagnostics path reads ops out of order: any pc, in any order,
// names the op the in-order stream has there.
TEST(SimKrakOpStream, RandomAccessNamesTheSameOp) {
  const SmallDeck f;
  SimKrakOptions options;
  options.iterations = 2;
  const SimKrak app = f.app(16, options);
  const std::unique_ptr<sim::Program> in_order = app.program();
  const std::unique_ptr<sim::Program> backwards = app.program();
  for (sim::RankId rank = 0; rank < in_order->ranks(); ++rank) {
    std::vector<sim::Op> stream;
    for (std::size_t pc = 0; pc < in_order->size(rank); ++pc) {
      stream.push_back(in_order->op(rank, pc));
    }
    ASSERT_EQ(backwards->size(rank), stream.size());
    for (std::size_t pc = stream.size(); pc-- > 0;) {
      StreamDigest expected;
      StreamDigest read;
      mix_op(expected, stream[pc]);
      mix_op(read, backwards->op(rank, pc));
      ASSERT_EQ(read.hash, expected.hash) << "rank " << rank << " pc " << pc;
    }
  }
}

// A run's failures name the op the program has at their index, and
// run() counts exactly the program's ops.
TEST(SimKrakOpStream, RunCountsAndDiagnosesTheProgramsOps) {
  const SmallDeck f;
  SimKrakOptions options;
  options.iterations = 1;
  options.enable_noise = false;
  fault::MessageFaultModel model;
  model.drop_probability = 0.9;
  model.max_retries = 0;
  options.faults.message_faults.push_back(model);
  const SimKrak app = f.app(8, options);

  obs::Counter& counted = obs::global_registry().counter("simapp.schedule.ops");
  const std::int64_t before = counted.value();
  const SimKrakResult result = app.run();
  const StreamDigest stream = stream_digest(*app.program());
  EXPECT_EQ(static_cast<std::uint64_t>(counted.value() - before), stream.ops);

  ASSERT_TRUE(result.failed());
  const std::unique_ptr<sim::Program> program = app.program();
  for (const sim::SimFailure& failure : result.failures) {
    ASSERT_TRUE(failure.has_op) << failure.to_string();
    const sim::Op op = program->op(failure.rank, failure.op_index);
    EXPECT_EQ(failure.op, op.kind()) << failure.to_string();
    if (op.kind() == sim::OpKind::kRecv || op.kind() == sim::OpKind::kIsend) {
      EXPECT_EQ(failure.peer, op.peer()) << failure.to_string();
      EXPECT_EQ(failure.tag, op.tag()) << failure.to_string();
    }
  }
}

}  // namespace
}  // namespace krak::simapp
