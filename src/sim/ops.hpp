#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/error.hpp"

namespace krak::sim {

using RankId = std::int32_t;

/// Kinds of operations a simulated rank can execute.
enum class OpKind : std::uint8_t {
  /// Advance the local clock by `duration` seconds of computation.
  kCompute,
  /// Post an asynchronous send of `bytes` to `peer` with matching `tag`.
  /// The sender pays only a CPU injection overhead; the payload arrives
  /// at the receiver one message time later. Sends to different peers
  /// therefore overlap on the wire (Section 4 of the paper: "messages
  /// to multiple neighbors are overlapped").
  kIsend,
  /// Block until all previously posted sends have left the local NIC.
  kWaitAllSends,
  /// Blocking receive of a message from `peer` with matching `tag`.
  kRecv,
  /// Tree allreduce over all ranks of `bytes` payload (synchronizing).
  kAllreduce,
  /// Tree broadcast of `bytes` from rank 0.
  kBroadcast,
  /// Tree gather of `bytes` to rank 0.
  kGather,
  /// Record the local clock into the result's record slot `slot`
  /// (used to extract per-phase times). Free.
  kRecord,
};

[[nodiscard]] std::string_view op_kind_name(OpKind kind);

/// One operation a rank executes, packed into 16 bytes
/// (docs/PERFORMANCE.md, "Schedule construction"). No kind reads every
/// field, so the kinds share them: `value_` is a compute op's seconds
/// or a message's or collective's payload bytes, and `peer_` is a
/// kRecord op's slot. The factories are the only constructors, so
/// every op's tag fits its 16 bits.
class Op {
 public:
  /// The largest tag an op holds: 32767, the least MPI_TAG_UB the MPI
  /// standard guarantees.
  static constexpr std::int32_t kMaxTag = 32767;

  [[nodiscard]] static Op compute(double seconds) {
    return {OpKind::kCompute, seconds, -1, 0};
  }
  /// Throws InvalidArgument for a tag outside [0, kMaxTag].
  [[nodiscard]] static Op isend(RankId to, double bytes, std::int32_t tag) {
    return {OpKind::kIsend, bytes, to, checked_tag(tag)};
  }
  [[nodiscard]] static Op wait_all_sends() {
    return {OpKind::kWaitAllSends, 0.0, -1, 0};
  }
  /// Throws InvalidArgument for a tag outside [0, kMaxTag].
  [[nodiscard]] static Op recv(RankId from, double bytes, std::int32_t tag) {
    return {OpKind::kRecv, bytes, from, checked_tag(tag)};
  }
  [[nodiscard]] static Op allreduce(double bytes) {
    return {OpKind::kAllreduce, bytes, -1, 0};
  }
  [[nodiscard]] static Op broadcast(double bytes) {
    return {OpKind::kBroadcast, bytes, -1, 0};
  }
  [[nodiscard]] static Op gather(double bytes) {
    return {OpKind::kGather, bytes, -1, 0};
  }
  [[nodiscard]] static Op record(std::int32_t slot) {
    return {OpKind::kRecord, 0.0, slot, 0};
  }

  [[nodiscard]] OpKind kind() const { return kind_; }
  /// kCompute only.
  [[nodiscard]] double duration() const { return value_; }
  /// Message or collective payload.
  [[nodiscard]] double bytes() const { return value_; }
  /// kIsend / kRecv only.
  [[nodiscard]] RankId peer() const { return peer_; }
  /// kIsend / kRecv matching.
  [[nodiscard]] std::int32_t tag() const { return tag_; }
  /// kRecord only.
  [[nodiscard]] std::int32_t slot() const { return peer_; }

 private:
  Op(OpKind kind, double value, std::int32_t peer, std::int16_t tag)
      : value_(value), peer_(peer), tag_(tag), kind_(kind) {}

  [[nodiscard]] static std::int16_t checked_tag(std::int32_t tag) {
    KRAK_REQUIRE(tag >= 0 && tag <= kMaxTag,
                 "message tag must be in [0, 32767]");
    return static_cast<std::int16_t>(tag);
  }

  double value_;
  std::int32_t peer_;
  std::int16_t tag_;
  OpKind kind_;
};
static_assert(sizeof(Op) == 16, "schedule ops must stay 16 bytes");

/// Every rank's ops, read one at a time as the engines step the ranks.
///
/// The engines ask for op `pc` of a rank in execution order: the op
/// they last asked for again (a rank woken on the op it blocked at) or
/// the next one. An implementation may keep a per-rank cursor to make
/// that amortised O(1). Any other `pc` (a diagnosis naming the op a
/// rank stopped at) must still return the same op, at whatever cost.
/// Calls for one rank never overlap: the engines make them from the
/// thread stepping the rank's shard, or after every worker finished.
/// Calls for ranks of different shards run concurrently, so state a
/// call writes must belong to its rank.
class Program {
 public:
  virtual ~Program() = default;
  /// Ranks the program covers.
  [[nodiscard]] virtual std::int32_t ranks() const = 0;
  /// Ops rank `rank` executes.
  [[nodiscard]] virtual std::size_t size(RankId rank) const = 0;
  /// Op `pc` of rank `rank`, for `pc < size(rank)`.
  [[nodiscard]] virtual Op op(RankId rank, std::size_t pc) = 0;
};

}  // namespace krak::sim
