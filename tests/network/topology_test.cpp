#include "network/topology.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace krak::network {
namespace {

TEST(Placement, BlockAssignment) {
  const Placement placement(10, 4);
  EXPECT_EQ(placement.node_of(0), 0);
  EXPECT_EQ(placement.node_of(3), 0);
  EXPECT_EQ(placement.node_of(4), 1);
  EXPECT_EQ(placement.node_of(9), 2);
}

TEST(Placement, SameNodePredicate) {
  const Placement placement(8, 4);
  EXPECT_TRUE(placement.same_node(0, 3));
  EXPECT_FALSE(placement.same_node(3, 4));
  EXPECT_TRUE(placement.same_node(5, 5));
}

TEST(Placement, SinglePePerNode) {
  const Placement placement(4, 1);
  EXPECT_EQ(placement.node_of(3), 3);
  EXPECT_FALSE(placement.same_node(0, 1));
}

TEST(Placement, RejectsBadArguments) {
  EXPECT_THROW(Placement(0, 4), util::InvalidArgument);
  EXPECT_THROW(Placement(4, 0), util::InvalidArgument);
  const Placement placement(4, 2);
  EXPECT_THROW((void)placement.node_of(4), util::InvalidArgument);
  EXPECT_THROW((void)placement.node_of(-1), util::InvalidArgument);
}

TEST(HierarchicalNetwork, IntraNodeIsCheaper) {
  const HierarchicalNetwork net(make_es45_shared_memory_model(),
                                make_qsnet1_model(), Placement(8, 4));
  for (double bytes : {8.0, 120.0, 4096.0, 65536.0}) {
    // Ranks 0 and 1 share a node; ranks 0 and 4 do not.
    EXPECT_LT(net.message_time(0, 1, bytes), net.message_time(0, 4, bytes));
    EXPECT_LT(net.latency(0, 1, bytes), net.latency(0, 4, bytes));
  }
}

TEST(HierarchicalNetwork, InterNodeMatchesFlatModel) {
  const MessageCostModel flat = make_qsnet1_model();
  const HierarchicalNetwork net(make_es45_shared_memory_model(), flat,
                                Placement(8, 4));
  for (double bytes : {8.0, 512.0, 65536.0}) {
    EXPECT_DOUBLE_EQ(net.message_time(0, 7, bytes), flat.message_time(bytes));
  }
}

TEST(HierarchicalNetwork, IntraNodeMatchesSharedMemoryModel) {
  const MessageCostModel shm = make_es45_shared_memory_model();
  const HierarchicalNetwork net(shm, make_qsnet1_model(), Placement(8, 4));
  EXPECT_DOUBLE_EQ(net.message_time(4, 6, 256.0), shm.message_time(256.0));
}

TEST(SharedMemoryModel, SubMicrosecondLatencyGigabyteBandwidth) {
  const MessageCostModel shm = make_es45_shared_memory_model();
  EXPECT_LT(shm.latency(8.0), 1e-6);
  EXPECT_GT(shm.effective_bandwidth(1 << 20), 500e6);
  // Faster than the interconnect at every size.
  const MessageCostModel qsnet = make_qsnet1_model();
  for (double bytes = 1.0; bytes <= 1e6; bytes *= 4.0) {
    EXPECT_LT(shm.message_time(bytes), qsnet.message_time(bytes));
  }
}

}  // namespace
}  // namespace krak::network
