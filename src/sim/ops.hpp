#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

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

/// One operation of a rank's static schedule, packed into 16 bytes: a
/// 100k-rank replay holds tens of millions of ops before its first
/// event fires (docs/PERFORMANCE.md, "Schedule construction"). No kind
/// reads every field, so the kinds share them: `value_` is a compute
/// op's seconds or a message's or collective's payload bytes, and
/// `peer_` is a kRecord op's slot. The factories are the only
/// constructors, so every op's tag fits its 16 bits.
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

using Schedule = std::vector<Op>;

}  // namespace krak::sim
