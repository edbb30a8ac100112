#include "analysis/operator_view.hpp"

#include <gtest/gtest.h>

#include "testing/fixtures.hpp"

namespace patchwork::analysis {
namespace {

using patchwork::testing::make_capture;
using patchwork::testing::tcp_frame;

TEST(OperatorView, TagsAreInvisible) {
  // The same 5-tuple in two different slices (VLAN 100 vs 200): Patchwork
  // keeps them apart; the operator view cannot.
  std::vector<RawCapture> captures;
  captures.push_back(make_capture(
      "S1", 0,
      {tcp_frame(1, 2, 1000, 443, 256, 0, /*vlan=*/100),
       tcp_frame(1, 2, 1000, 443, 256, 1, /*vlan=*/200)}));
  const AsymmetryReport report = measure_asymmetry(captures);
  EXPECT_EQ(report.patchwork_flows, 2u);
  EXPECT_EQ(report.operator_flows, 1u);  // Collapsed.
  EXPECT_EQ(report.collapsed_keys, 1u);
  EXPECT_EQ(report.hidden_flows, 1u);
  EXPECT_DOUBLE_EQ(report.undercount_fraction(), 0.5);
}

TEST(OperatorView, NoCollisionNoLoss) {
  std::vector<RawCapture> captures;
  captures.push_back(make_capture(
      "S1", 0, {tcp_frame(1, 2, 1000, 443), tcp_frame(3, 4, 1001, 443)}));
  const AsymmetryReport report = measure_asymmetry(captures);
  EXPECT_EQ(report.patchwork_flows, report.operator_flows);
  EXPECT_EQ(report.hidden_flows, 0u);
  EXPECT_DOUBLE_EQ(report.undercount_fraction(), 0.0);
}

TEST(OperatorView, EmptyProfile) {
  const AsymmetryReport report = measure_asymmetry({});
  EXPECT_EQ(report.patchwork_flows, 0u);
  EXPECT_EQ(report.operator_flows, 0u);
  EXPECT_DOUBLE_EQ(report.undercount_fraction(), 0.0);
}

}  // namespace
}  // namespace patchwork::analysis
