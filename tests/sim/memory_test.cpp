// Heap bytes a simulation holds per message in flight. Global operator
// new/delete are replaced with counting forwards to malloc/free that
// keep the live requested bytes and their peak, so the test reads what
// the simulator's containers asked for — no allocator slack, no page
// rounding, nothing glibc keeps after a free — at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "network/msgmodel.hpp"
#include "sim/simulator.hpp"
#include "stored_program.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

/// Each block starts with its requested size, padded to keep the
/// caller's pointer aligned as malloc's is.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof size);
  const auto bytes = static_cast<std::int64_t>(size);
  const std::int64_t live = g_live_bytes.fetch_add(bytes) + bytes;
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return base + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size));
  std::free(base);
}

}  // namespace

// gcc's -Wmismatched-new-delete pairs the malloc inside the replaced
// operator new with the free inside the replaced operator delete and
// flags the pair — but forwarding both to malloc/free is exactly the
// point of the replacement, so the match is correct by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

#pragma GCC diagnostic pop

namespace krak::sim {
namespace {

constexpr std::int32_t kRanks = 4096;
/// Messages each rank sends its right neighbor.
constexpr std::int32_t kMessages = 12;
/// Peak heap bytes per pending message a run may hold, over the live
/// bytes before it starts: rank state, results, queue entries, mailbox
/// slots and records together. With 32-byte queue entries and a record
/// vector per rank this read 108.2-108.8 at threads 1, 2 and 8; with
/// 24-byte entries and one record pool per shard, 87.9-89.5.
constexpr double kBytesPerMessage = 96.0;

/// A ring in which every rank posts kMessages sends to its right
/// neighbor at t = 0, then receives its left neighbor's, last tag
/// first: every message is in flight at once, first as a queue entry
/// and then as a mailbox record until the last one arrives.
StoredProgram ring_program() {
  StoredProgram program(kRanks);
  for (RankId r = 0; r < kRanks; ++r) {
    std::vector<Op> ops;
    for (std::int32_t tag = 0; tag < kMessages; ++tag) {
      ops.push_back(Op::isend((r + 1) % kRanks, 1000.0, tag));
    }
    for (std::int32_t tag = kMessages - 1; tag >= 0; --tag) {
      ops.push_back(Op::recv((r + kRanks - 1) % kRanks, 1000.0, tag));
    }
    program.set(r, std::move(ops));
  }
  return program;
}

TEST(SimMemory, PeakHeapPerPendingMessageStaysBounded) {
  StoredProgram program = ring_program();
  const network::MessageCostModel model =
      network::make_hockney_model(1e-6, 1e9);
  for (const std::int32_t threads : {1, 2, 8}) {
    SimConfig config;
    config.threads = threads;
    // The first run registers the engines' metrics and warms the
    // allocator's bookkeeping; only the second is measured.
    static_cast<void>(Simulator(program, model, config).run());
    Simulator sim(program, model, config);
    const std::int64_t before = g_live_bytes.load();
    g_peak_bytes.store(before);
    const SimResult result = sim.run();
    const std::int64_t peak = g_peak_bytes.load() - before;

    ASSERT_TRUE(result.failures.empty());
    const std::int64_t messages = std::int64_t{kRanks} * kMessages;
    ASSERT_EQ(result.traffic.point_to_point_messages, messages);
    const double per_message =
        static_cast<double>(peak) / static_cast<double>(messages);
    EXPECT_LT(per_message, kBytesPerMessage)
        << "threads " << threads << ": peak " << peak << " bytes";
  }
}

}  // namespace
}  // namespace krak::sim
