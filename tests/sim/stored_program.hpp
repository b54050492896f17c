#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/ops.hpp"

namespace krak::sim {

/// A program whose ops are stored up front, one vector per rank: what
/// the hand-written simulator tests run. A simulator keeps a reference
/// to its program, so the program must outlive it.
class StoredProgram final : public Program {
 public:
  /// `ranks` ranks with no ops yet.
  explicit StoredProgram(std::int32_t ranks)
      : ops_(static_cast<std::size_t>(ranks)) {}
  /// ops[r] is rank r's ops.
  explicit StoredProgram(std::vector<std::vector<Op>> ops)
      : ops_(std::move(ops)) {}

  [[nodiscard]] std::int32_t ranks() const override {
    return static_cast<std::int32_t>(ops_.size());
  }
  [[nodiscard]] std::size_t size(RankId rank) const override {
    return ops_[static_cast<std::size_t>(rank)].size();
  }
  [[nodiscard]] Op op(RankId rank, std::size_t pc) override {
    return ops_[static_cast<std::size_t>(rank)][pc];
  }
  /// Replaces rank `rank`'s ops.
  void set(RankId rank, std::vector<Op> ops) {
    ops_.at(static_cast<std::size_t>(rank)) = std::move(ops);
  }

 private:
  std::vector<std::vector<Op>> ops_;
};

}  // namespace krak::sim
