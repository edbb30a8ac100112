#include "sim/clock.hpp"

#include <gtest/gtest.h>

namespace patchwork::sim {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0u);
  c.advance_by(10);
  c.advance_to(50);
  EXPECT_EQ(c.now(), 50u);
}

}  // namespace
}  // namespace patchwork::sim
