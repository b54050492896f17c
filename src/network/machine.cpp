#include "network/machine.hpp"

#include "util/error.hpp"

namespace krak::network {

MachineConfig make_es45_qsnet() {
  MachineConfig config;
  config.name = "ES45-QsNet";
  config.nodes = 256;
  config.pes_per_node = 4;
  config.compute_speedup = 1.0;
  config.network = make_qsnet1_model();
  return config;
}

MachineConfig make_hypothetical_upgrade() {
  MachineConfig config;
  config.name = "Upgrade-2x";
  config.nodes = 256;
  config.pes_per_node = 4;
  config.compute_speedup = 2.0;
  config.network = make_qsnet1_model().scaled(0.5, 0.5);
  return config;
}

MachineConfig make_machine(std::string_view name) {
  if (name == "es45") return make_es45_qsnet();
  if (name == "upgrade") return make_hypothetical_upgrade();
  throw util::InvalidArgument("unknown machine '" + std::string(name) + "'");
}

}  // namespace krak::network
