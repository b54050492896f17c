#include "network/msgmodel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace krak::network {
namespace {

TEST(MessageCostModel, DefaultModelIsZeroCost) {
  const MessageCostModel model;
  EXPECT_DOUBLE_EQ(model.latency(100.0), 0.0);
  EXPECT_DOUBLE_EQ(model.byte_cost(100.0), 0.0);
  EXPECT_DOUBLE_EQ(model.message_time(100.0), 0.0);
}

TEST(MessageCostModel, EquationFourHoldsExactly) {
  // Tmsg(S) = L(S) + S * TB(S), Equation (4).
  const MessageCostModel model = make_qsnet1_model();
  for (double bytes : {1.0, 12.0, 48.0, 120.0, 4096.0, 1e6}) {
    EXPECT_DOUBLE_EQ(model.message_time(bytes),
                     model.latency(bytes) + bytes * model.byte_cost(bytes));
  }
}

TEST(MessageCostModel, HockneyModelIsAffine) {
  const MessageCostModel model =
      make_hockney_model(util::microseconds(5.0), 300e6);
  EXPECT_DOUBLE_EQ(model.latency(1.0), 5e-6);
  EXPECT_DOUBLE_EQ(model.latency(1e6), 5e-6);
  EXPECT_NEAR(model.message_time(300e6), 5e-6 + 1.0, 1e-9);
}

TEST(MessageCostModel, ZeroByteMessageCostsOnlyLatency) {
  const MessageCostModel model = make_qsnet1_model();
  EXPECT_DOUBLE_EQ(model.message_time(0.0), model.latency(0.0));
  EXPECT_GT(model.message_time(0.0), 0.0);
}

TEST(MessageCostModel, NegativeSizeRejected) {
  const MessageCostModel model = make_qsnet1_model();
  EXPECT_THROW((void)model.message_time(-1.0), util::InvalidArgument);
  EXPECT_THROW((void)model.latency(-1.0), util::InvalidArgument);
}

TEST(MessageCostModel, MessageTimeMonotoneInSize) {
  const MessageCostModel model = make_qsnet1_model();
  double previous = 0.0;
  for (double bytes = 1.0; bytes <= 4e6; bytes *= 2.0) {
    const double t = model.message_time(bytes);
    EXPECT_GT(t, previous) << "at " << bytes << " bytes";
    previous = t;
  }
}

TEST(MessageCostModel, QsnetLatencyInEraRange) {
  // Quadrics QsNet-I MPI latency was ~5 us (Petrini et al. 2002).
  const MessageCostModel model = make_qsnet1_model();
  EXPECT_GT(model.latency(8.0), util::microseconds(3.0));
  EXPECT_LT(model.latency(8.0), util::microseconds(7.0));
}

TEST(MessageCostModel, QsnetAsymptoticBandwidthNear300MB) {
  const MessageCostModel model = make_qsnet1_model();
  const double bw = model.effective_bandwidth(4.0 * 1024 * 1024);
  EXPECT_GT(bw, 250e6);
  EXPECT_LT(bw, 350e6);
}

TEST(MessageCostModel, SmallMessagesAreLatencyDominated) {
  const MessageCostModel model = make_qsnet1_model();
  const double t = model.message_time(12.0);
  EXPECT_GT(model.latency(12.0) / t, 0.9);
}

TEST(MessageCostModel, EffectiveBandwidthIncreasesWithSize) {
  const MessageCostModel model = make_qsnet1_model();
  EXPECT_LT(model.effective_bandwidth(64.0),
            model.effective_bandwidth(65536.0));
  EXPECT_THROW((void)model.effective_bandwidth(0.0), util::InvalidArgument);
}

TEST(MessageCostModel, ScaledModelScalesComponents) {
  const MessageCostModel base = make_qsnet1_model();
  const MessageCostModel fast = base.scaled(0.5, 0.25);
  for (double bytes : {8.0, 512.0, 65536.0}) {
    EXPECT_NEAR(fast.latency(bytes), 0.5 * base.latency(bytes), 1e-15);
    EXPECT_NEAR(fast.byte_cost(bytes), 0.25 * base.byte_cost(bytes), 1e-18);
  }
}

TEST(MessageCostModel, ScaledIdentityIsExactEverywhere) {
  // Regression: scaled() used to rebuild its tables point by point with
  // the default interpolation mode, so scaled(1, 1) of a kLogX model
  // changed values between breakpoints.
  const MessageCostModel base = make_qsnet1_model();
  const MessageCostModel same = base.scaled(1.0, 1.0);
  // Off-breakpoint sizes are the interesting ones.
  for (double bytes : {1.0, 3.0, 100.0, 1000.0, 10000.0, 123456.0, 5e6}) {
    EXPECT_DOUBLE_EQ(same.latency(bytes), base.latency(bytes))
        << "at " << bytes;
    EXPECT_DOUBLE_EQ(same.byte_cost(bytes), base.byte_cost(bytes))
        << "at " << bytes;
    EXPECT_DOUBLE_EQ(same.message_time(bytes), base.message_time(bytes))
        << "at " << bytes;
  }
}

TEST(MessageCostModel, ScaledPreservesLinearInterpolation) {
  // Two-point linear-interpolation latency: the midpoint is the mean of
  // the endpoints. A rebuild that forced kLogX would bend the segment.
  const std::vector<double> xs = {1.0, 1001.0};
  const std::vector<double> lat_ys = {1e-6, 3e-6};
  const std::vector<double> tb_ys = {1e-9, 1e-9};
  const MessageCostModel base(
      util::PiecewiseLinear(xs, lat_ys, util::Interpolation::kLinear),
      util::PiecewiseLinear(xs, tb_ys, util::Interpolation::kLinear));
  ASSERT_DOUBLE_EQ(base.latency(501.0), 2e-6);  // linear midpoint
  const MessageCostModel same = base.scaled(1.0, 1.0);
  EXPECT_DOUBLE_EQ(same.latency(501.0), 2e-6);
  const MessageCostModel fast = base.scaled(0.5, 1.0);
  EXPECT_DOUBLE_EQ(fast.latency(501.0), 1e-6);
}

TEST(MessageCostModel, ScaledRejectsNonPositiveFactors) {
  const MessageCostModel base = make_qsnet1_model();
  EXPECT_THROW((void)base.scaled(0.0, 1.0), util::InvalidArgument);
  EXPECT_THROW((void)base.scaled(1.0, -1.0), util::InvalidArgument);
}

TEST(MessageCostModel, HockneyRejectsBadParameters) {
  EXPECT_THROW((void)make_hockney_model(-1.0, 1.0), util::InvalidArgument);
  EXPECT_THROW((void)make_hockney_model(1.0, 0.0), util::InvalidArgument);
}

/// Piecewise interpolation between table breakpoints must stay within
/// the bracketing byte-cost values.
class ByteCostBoundsTest : public ::testing::TestWithParam<double> {};

TEST_P(ByteCostBoundsTest, WithinTableRange) {
  const MessageCostModel model = make_qsnet1_model();
  const double cost = model.byte_cost(GetParam());
  EXPECT_GE(cost, util::nanoseconds(3.0));
  EXPECT_LE(cost, util::nanoseconds(12.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ByteCostBoundsTest,
                         ::testing::Values(1.0, 7.0, 100.0, 1000.0, 10000.0,
                                           123456.0, 5e6));

}  // namespace
}  // namespace krak::network
