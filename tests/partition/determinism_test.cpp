// Determinism contract of the multilevel partitioner (docs/PERFORMANCE.md,
// "Partitioner"): the assignment is a pure function of (graph, parts,
// seed). The checksums below were produced by the serial reference
// implementation; the coarsening ladder cache, the dual-graph cache and
// partition_deck's grid-keyed path must reproduce them bit for bit,
// also when concurrent callers share those caches. CI runs this suite
// under ThreadSanitizer as well, so a data race between callers fails
// even when it happens to produce the right answer.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <latch>
#include <string>
#include <utility>
#include <vector>

#include "mesh/deck.hpp"
#include "obs/metrics.hpp"
#include "partition/dualgraph.hpp"
#include "partition/partition.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace krak;

struct ChecksumCase {
  const char* deck;
  std::int32_t parts;
  std::uint64_t seed;
  std::uint64_t checksum;
};

// FNV-1a over the assignment, the same digest the partition store embeds.
std::uint64_t checksum_of(const partition::Partition& part) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const partition::PeId pe : part.assignment()) {
    hash ^= static_cast<std::uint32_t>(pe);
    hash *= 1099511628211ull;
  }
  return hash;
}

mesh::InputDeck make_deck(const std::string& name) {
  if (name == "figure2") return mesh::make_figure2_deck();
  return mesh::make_standard_deck(mesh::parse_deck_size(name));
}

// Every standard deck at its campaign PE counts (seed 1 is
// ValidationConfig::partition_seed) plus the calibration configurations
// (seed 2006 is CalibrationConfig::seed, medium deck). Recorded from
// the serial reference implementation; any change here is a silent
// change to every measured campaign value and must be deliberate.
const ChecksumCase kCases[] = {
    {"small", 16, 1, 0x5f24542071c7e00cull},
    {"small", 64, 1, 0xb845599a67dcda90ull},
    {"small", 128, 1, 0xeca51fda95fe1790ull},
    {"medium", 16, 1, 0x2eb0be63ac1b25edull},
    {"medium", 64, 1, 0xa289f37a9fe48653ull},
    {"medium", 96, 1, 0x16cda0fbb6fcf6c5ull},
    {"medium", 128, 1, 0x71ce83163875d18full},
    {"medium", 256, 1, 0x2f88c2de7d8d2f20ull},
    {"medium", 512, 1, 0xe68081abd24015bbull},
    {"figure2", 16, 1, 0x014f94e129515955ull},
    {"figure2", 64, 1, 0x8a900109f0e0c22cull},
    {"large", 128, 1, 0xeff45b2b0c7844f8ull},
    {"large", 256, 1, 0xe3d46887b06451e2ull},
    {"large", 257, 1, 0xff2b8cc6ce54ea32ull},
    {"large", 512, 1, 0x58089e31eb230279ull},
    // The strong-scaling sweep's configurations: the costliest FM calls.
    {"large", 1024, 1, 0x0f33b7d939b4868dull},
    {"large", 2048, 1, 0x6c2b83a8a2d19c2full},
    {"large", 4096, 1, 0x2bdfbac9d1047623ull},
    {"medium", 8, 2006, 0x542b19cd811b8dbfull},
    {"medium", 64, 2006, 0x0dc23472cbf16999ull},
    {"medium", 512, 2006, 0x5ff37b31e4443d1aull},
    {"medium", 4096, 2006, 0xec9f2b457fb8db95ull},
};

// The checksum kCases records for (deck, parts, seed).
std::uint64_t reference_checksum(const std::string& deck, std::int32_t parts,
                                 std::uint64_t seed) {
  for (const ChecksumCase& c : kCases) {
    if (c.deck == deck && c.parts == parts && c.seed == seed) {
      return c.checksum;
    }
  }
  ADD_FAILURE() << "no checksum for " << deck << " parts=" << parts
                << " seed=" << seed;
  return 0;
}

TEST(MultilevelDeterminismTest, MatchesSerialReferenceChecksums) {
  // A cached ladder would replay coarsening instead of re-running it;
  // clearing first makes every case genuinely coarsen.
  partition::clear_multilevel_ladder_cache();
  for (const ChecksumCase& c : kCases) {
    const mesh::InputDeck deck = make_deck(c.deck);
    const partition::Graph graph = partition::build_dual_graph(deck.grid());
    const partition::Partition part =
        partition::partition_multilevel(graph, c.parts, c.seed);
    EXPECT_EQ(checksum_of(part), c.checksum)
        << c.deck << " parts=" << c.parts << " seed=" << c.seed;
  }
}

// cost_aware_test.cpp's skewed material costs: HE gas 4x the rest.
constexpr std::array<double, mesh::kMaterialCount> kSkewedCosts = {4.0, 1.0,
                                                                   1.0, 1.0};

// partition_cost_aware is the one caller whose finest-level vertex
// weights exceed 1 (100 and 400 with kSkewedCosts), so it pins
// refinement's balance-ceiling band at max_vw > 1.
TEST(MultilevelDeterminismTest, CostAwareMatchesReferenceChecksums) {
  partition::clear_multilevel_ladder_cache();
  const mesh::InputDeck deck = make_deck("medium");
  const struct {
    std::int32_t parts;
    std::uint64_t checksum;
  } cases[] = {{64, 0x377af0cfe0bb0c74ull}, {512, 0x4e8fc79d9b224038ull}};
  for (const auto& c : cases) {
    const partition::Partition part =
        partition::partition_cost_aware(deck, c.parts, kSkewedCosts, 1);
    EXPECT_EQ(checksum_of(part), c.checksum) << "parts=" << c.parts;
  }
}

// refine() evaluates exactly the vertices whose decision inputs changed
// since their last evaluation (docs/PERFORMANCE.md, "The dirty
// worklist"). Extra evaluations, of a mover say, keep the checksums
// above on these decks and only cost time, so the evaluation counts are
// pinned as well; they are the counts of the per-vertex stamp check the
// worklist replaced.
TEST(MultilevelDeterminismTest, FmEvaluationCountsArePinned) {
  const mesh::InputDeck small = make_deck("small");
  const mesh::InputDeck medium = make_deck("medium");
  const obs::Counter& evaluations =
      obs::global_registry().counter("partition.fm.evaluations");
  const auto count = [&evaluations](const auto& partition_once) {
    partition::clear_multilevel_ladder_cache();
    const std::int64_t before = evaluations.value();
    (void)partition_once();
    return evaluations.value() - before;
  };
  EXPECT_EQ(count([&] {
              return partition::partition_multilevel(
                  partition::build_dual_graph(small.grid()), 64, 1);
            }),
            5924);
  EXPECT_EQ(count([&] {
              return partition::partition_multilevel(
                  partition::build_dual_graph(medium.grid()), 512, 1);
            }),
            545979);
  EXPECT_EQ(count([&] {
              return partition::partition_cost_aware(medium, 512,
                                                     kSkewedCosts, 1);
            }),
            531086);
}

// The ladder cache must be output-invariant when part counts of the
// same (deck, seed) interleave: a larger part count stops higher up the
// shared ladder, a later smaller one extends it, and both must match a
// cold computation exactly.
TEST(MultilevelLadderCacheTest, InterleavedPartCountsReplayExactly) {
  partition::clear_multilevel_ladder_cache();
  const mesh::InputDeck deck = make_deck("medium");
  const partition::Graph graph = partition::build_dual_graph(deck.grid());
  // 512 coarsens shallowly, 16 then extends the cached ladder, 256 and
  // 64 replay prefixes of it.
  for (const std::int32_t parts : {512, 16, 256, 64}) {
    const partition::Partition part =
        partition::partition_multilevel(graph, parts, 1);
    EXPECT_EQ(checksum_of(part), reference_checksum("medium", parts, 1))
        << "parts=" << parts;
  }
}

// partition_deck reaches the partitioner by its own path: the dual graph
// comes from its grid-keyed cache, and the ladder key is the grid
// dimensions instead of a hash of the graph. Neither may change the
// result.
TEST(MultilevelLadderCacheTest, PartitionDeckMatchesReferenceChecksum) {
  partition::clear_multilevel_ladder_cache();
  const partition::Partition part = partition::partition_deck(
      make_deck("small"), 64, partition::PartitionMethod::kMultilevel, 1);
  EXPECT_EQ(checksum_of(part), reference_checksum("small", 64, 1));
}

/// partition.ladder.{hits, misses} so far.
std::pair<std::int64_t, std::int64_t> ladder_counts() {
  obs::Registry& registry = obs::global_registry();
  return {registry.counter("partition.ladder.hits").value(),
          registry.counter("partition.ladder.misses").value()};
}

// Callers on different threads share the ladder and dual-graph caches,
// the only concurrency left in the partitioner. Part counts of one grid
// stop at different depths of one ladder key. A caller whose key another
// caller is coarsening waits for that ladder instead of coarsening its
// own, so the grid is coarsened once, and every result must still equal
// its checksum.
TEST(MultilevelLadderCacheTest, ConcurrentPartCountsOfOneGridMatchChecksums) {
  partition::clear_multilevel_ladder_cache();
  const mesh::InputDeck deck = make_deck("small");
  constexpr std::int32_t kParts[] = {16, 64, 128};
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kRequests = kWorkers * 6;
  const auto [hits_before, misses_before] = ladder_counts();
  std::vector<std::uint64_t> checksums(kRequests, 0);
  util::ThreadPool pool(kWorkers);
  // Each worker's first request waits here until every worker holds
  // one, so the first kWorkers requests reach the cold cache together.
  std::latch start(kWorkers);
  pool.parallel_for(kRequests, [&](std::size_t i) {
    if (i < kWorkers) start.arrive_and_wait();
    checksums[i] = checksum_of(partition::partition_deck(
        deck, kParts[i % 3], partition::PartitionMethod::kMultilevel, 1));
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(checksums[i], reference_checksum("small", kParts[i % 3], 1))
        << "request " << i << " parts=" << kParts[i % 3];
  }
  const auto [hits, misses] = ladder_counts();
  EXPECT_EQ(misses - misses_before, 1);
  EXPECT_EQ(hits - hits_before, static_cast<std::int64_t>(kRequests) - 1);
}

// The medium grid coarsens for long enough that concurrent first
// requests overlap the coarsening: each must wait for the one ladder,
// not miss and coarsen its own.
TEST(MultilevelLadderCacheTest, ConcurrentFirstRequestsCoarsenOnce) {
  partition::clear_multilevel_ladder_cache();
  const mesh::InputDeck deck = make_deck("medium");
  constexpr std::array<std::int32_t, 4> kParts = {512, 128, 64, 16};
  const auto [hits_before, misses_before] = ladder_counts();
  std::array<std::uint64_t, kParts.size()> checksums{};
  util::ThreadPool pool(kParts.size());
  std::latch start(kParts.size());
  pool.parallel_for(kParts.size(), [&](std::size_t i) {
    start.arrive_and_wait();
    checksums[i] = checksum_of(partition::partition_deck(
        deck, kParts[i], partition::PartitionMethod::kMultilevel, 1));
  });
  for (std::size_t i = 0; i < kParts.size(); ++i) {
    EXPECT_EQ(checksums[i], reference_checksum("medium", kParts[i], 1))
        << "parts=" << kParts[i];
  }
  const auto [hits, misses] = ladder_counts();
  EXPECT_EQ(misses - misses_before, 1);
  EXPECT_EQ(hits - hits_before, static_cast<std::int64_t>(kParts.size()) - 1);
}

}  // namespace
