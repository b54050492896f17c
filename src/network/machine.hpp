#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "network/msgmodel.hpp"

namespace krak::network {

/// Description of a target machine: processor layout plus the
/// point-to-point message cost model of its interconnect.
///
/// The validation platform of the paper (Section 5.1) is a 256-node
/// HP/Compaq AlphaServer: ES-45 nodes with 4 Alpha EV-68 processors at
/// 1.25 GHz, connected by a Quadrics QsNet-I fat tree.
struct MachineConfig {
  std::string name;
  std::int32_t nodes = 1;
  std::int32_t pes_per_node = 1;
  /// Scales all computation costs: 1.0 is the reference (ES-45) speed;
  /// 2.0 means CPUs twice as fast (costs halved). This is the knob a
  /// procurement study turns.
  double compute_speedup = 1.0;
  MessageCostModel network;

  [[nodiscard]] std::int32_t total_pes() const { return nodes * pes_per_node; }
};

/// The paper's validation platform: 256 ES-45 nodes, 4 PEs each,
/// QsNet-I interconnect.
[[nodiscard]] MachineConfig make_es45_qsnet();

/// A hypothetical faster machine for procurement-study examples:
/// same topology, 2x compute speed, half network latency, double
/// bandwidth.
[[nodiscard]] MachineConfig make_hypothetical_upgrade();

/// The machine a command line names: `es45` (make_es45_qsnet) or
/// `upgrade` (make_hypothetical_upgrade); InvalidArgument for any other.
[[nodiscard]] MachineConfig make_machine(std::string_view name);

}  // namespace krak::network
