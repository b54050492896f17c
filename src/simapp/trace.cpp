#include "simapp/trace.hpp"

#include <memory>

namespace krak::simapp {

std::int64_t MessageInventory::total_messages() const {
  std::int64_t total = 0;
  for (const PhaseTraffic& t : per_phase) total += t.messages;
  return total;
}

double MessageInventory::total_bytes() const {
  double total = 0.0;
  for (const PhaseTraffic& t : per_phase) total += t.bytes;
  return total;
}

double MessageInventory::mean_message_bytes() const {
  const std::int64_t messages = total_messages();
  if (messages == 0) return 0.0;
  return total_bytes() / static_cast<double>(messages);
}

double MessageInventory::fraction_at_most(double bytes) const {
  const std::int64_t messages = total_messages();
  if (messages == 0) return 0.0;
  std::int64_t covered = 0;
  for (const auto& [size, count] : size_histogram) {
    if (size > bytes) break;
    covered += count;
  }
  return static_cast<double>(covered) / static_cast<double>(messages);
}

MessageInventory compute_message_inventory(const SimKrak& app) {
  MessageInventory inventory;
  const std::unique_ptr<sim::Program> program = app.program();
  for (sim::RankId rank = 0; rank < program->ranks(); ++rank) {
    // Every iteration ends each of its phases with a kRecord op, so the
    // first iteration ends at the kPhaseCount-th.
    std::int32_t phase = 1;
    for (std::size_t pc = 0; phase <= kPhaseCount; ++pc) {
      const sim::Op op = program->op(rank, pc);
      if (op.kind() == sim::OpKind::kRecord) {
        ++phase;
      } else if (op.kind() == sim::OpKind::kIsend) {
        MessageInventory::PhaseTraffic& traffic =
            inventory.per_phase[static_cast<std::size_t>(phase - 1)];
        ++traffic.messages;
        traffic.bytes += op.bytes();
        ++inventory.size_histogram[op.bytes()];
      }
    }
  }
  return inventory;
}

}  // namespace krak::simapp
