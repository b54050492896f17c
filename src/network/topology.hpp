#pragma once

#include <cstdint>

#include "network/msgmodel.hpp"

namespace krak::network {

/// Block placement of MPI ranks onto SMP nodes: ranks 0..k-1 on node 0,
/// k..2k-1 on node 1, and so on — the default placement of the paper's
/// era and machines (4-way ES-45 nodes).
class Placement {
 public:
  Placement(std::int32_t pes, std::int32_t pes_per_node);

  [[nodiscard]] std::int32_t pes() const { return pes_; }
  [[nodiscard]] std::int32_t pes_per_node() const { return pes_per_node_; }

  [[nodiscard]] std::int32_t node_of(std::int32_t pe) const;
  [[nodiscard]] bool same_node(std::int32_t a, std::int32_t b) const;

 private:
  std::int32_t pes_;
  std::int32_t pes_per_node_;
};

/// Two-level message-cost model: messages between ranks on the same SMP
/// node move through shared memory (cheap), messages between nodes
/// cross the interconnect (Equation 4's Tmsg).
///
/// The paper's model uses a single flat Tmsg; this extension quantifies
/// what that flattening costs (the `ablation_hierarchy` key of
/// krak_repro).
class HierarchicalNetwork {
 public:
  HierarchicalNetwork(MessageCostModel intra_node, MessageCostModel inter_node,
                      Placement placement);

  [[nodiscard]] double message_time(std::int32_t from, std::int32_t to,
                                    double bytes) const;
  [[nodiscard]] double latency(std::int32_t from, std::int32_t to,
                               double bytes) const;

  [[nodiscard]] const MessageCostModel& intra_node() const { return intra_; }
  [[nodiscard]] const MessageCostModel& inter_node() const { return inter_; }
  [[nodiscard]] const Placement& placement() const { return placement_; }

 private:
  MessageCostModel intra_;
  MessageCostModel inter_;
  Placement placement_;
};

/// Shared-memory transfer model for a 4-way AlphaServer node: sub-
/// microsecond latency and memory-bus bandwidth far above the NIC's.
[[nodiscard]] MessageCostModel make_es45_shared_memory_model();

}  // namespace krak::network
