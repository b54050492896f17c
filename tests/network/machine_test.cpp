#include "network/machine.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace krak::network {
namespace {

TEST(Machine, Es45MatchesPaperPlatform) {
  // Section 5.1: 256 ES-45 nodes with 4 Alpha EV-68 processors each.
  const MachineConfig machine = make_es45_qsnet();
  EXPECT_EQ(machine.nodes, 256);
  EXPECT_EQ(machine.pes_per_node, 4);
  EXPECT_EQ(machine.total_pes(), 1024);
  EXPECT_DOUBLE_EQ(machine.compute_speedup, 1.0);
  EXPECT_EQ(machine.name, "ES45-QsNet");
}

TEST(Machine, Es45NetworkIsPopulated) {
  const MachineConfig machine = make_es45_qsnet();
  EXPECT_GT(machine.network.message_time(8.0), 0.0);
}

TEST(Machine, UpgradeIsStrictlyFaster) {
  const MachineConfig base = make_es45_qsnet();
  const MachineConfig upgrade = make_hypothetical_upgrade();
  EXPECT_GT(upgrade.compute_speedup, base.compute_speedup);
  for (double bytes : {8.0, 512.0, 65536.0}) {
    EXPECT_LT(upgrade.network.message_time(bytes),
              base.network.message_time(bytes));
  }
  EXPECT_EQ(upgrade.total_pes(), base.total_pes());
}

TEST(Machine, MakeMachineParsesCommandLineNames) {
  EXPECT_EQ(make_machine("es45").name, make_es45_qsnet().name);
  EXPECT_EQ(make_machine("upgrade").name, make_hypothetical_upgrade().name);
  // An unknown name used to mean the ES-45 without a word.
  EXPECT_THROW((void)make_machine("foo"), util::InvalidArgument);
}

}  // namespace
}  // namespace krak::network
