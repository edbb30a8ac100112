// Golden-file test of the Prometheus text exposition: exact bytes for a
// registry covering every family type, help/label escaping, cumulative
// histogram buckets with +Inf, and name sorting independent of
// registration order.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"

namespace patchwork::obs {
namespace {

Registry& golden_registry(Registry& reg) {
  // Register deliberately out of name order; exposition must sort.
  reg.counter("patchwork_zeta_total", "Last family").add(7);
  Counter& alpha = reg.counter("patchwork_alpha_total",
                               "Help with \\ and \n newline",
                               {{"cause", "ring \"overflow\"\n"}});
  alpha.add(3);
  reg.gauge("patchwork_mid_gauge", "A gauge").set(2.5);
  LatencyHistogram& lat = reg.histogram("patchwork_lat_ns", "Latency");
  lat.observe(1);
  lat.observe(3);
  lat.observe(100);
  reg.counter("patchwork_wall_total", "Wall clock", {},
              Determinism::kWallClock)
      .add(9);
  return reg;
}

constexpr const char* kGolden =
    "# HELP patchwork_alpha_total Help with \\\\ and \\n newline\n"
    "# TYPE patchwork_alpha_total counter\n"
    "patchwork_alpha_total{cause=\"ring \\\"overflow\\\"\\n\"} 3\n"
    "# HELP patchwork_lat_ns Latency\n"
    "# TYPE patchwork_lat_ns histogram\n"
    "patchwork_lat_ns_bucket{le=\"2\"} 1\n"
    "patchwork_lat_ns_bucket{le=\"4\"} 2\n"
    "patchwork_lat_ns_bucket{le=\"8\"} 2\n"
    "patchwork_lat_ns_bucket{le=\"16\"} 2\n"
    "patchwork_lat_ns_bucket{le=\"32\"} 2\n"
    "patchwork_lat_ns_bucket{le=\"64\"} 2\n"
    "patchwork_lat_ns_bucket{le=\"128\"} 3\n"
    "patchwork_lat_ns_bucket{le=\"+Inf\"} 3\n"
    "patchwork_lat_ns_sum 104\n"
    "patchwork_lat_ns_count 3\n"
    "# HELP patchwork_mid_gauge A gauge\n"
    "# TYPE patchwork_mid_gauge gauge\n"
    "patchwork_mid_gauge 2.5\n"
    "# HELP patchwork_wall_total Wall clock\n"
    "# TYPE patchwork_wall_total counter\n"
    "patchwork_wall_total 9\n"
    "# HELP patchwork_zeta_total Last family\n"
    "# TYPE patchwork_zeta_total counter\n"
    "patchwork_zeta_total 7\n";

TEST(ObsExpose, GoldenFullExposition) {
  Registry reg;
  EXPECT_EQ(golden_registry(reg).expose_text(), kGolden);
}

TEST(ObsExpose, DeterministicOnlyOmitsWallClockFamilies) {
  Registry reg;
  const std::string det =
      golden_registry(reg).expose_text(/*deterministic_only=*/true);
  EXPECT_EQ(det.find("patchwork_wall_total"), std::string::npos);
  EXPECT_NE(det.find("patchwork_alpha_total"), std::string::npos);
  EXPECT_NE(det.find("patchwork_lat_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
}

TEST(ObsExpose, OutputIndependentOfRegistrationOrder) {
  Registry forward;
  forward.counter("patchwork_a_total", "a").add(1);
  forward.counter("patchwork_b_total", "b").add(2);
  Registry backward;
  backward.counter("patchwork_b_total", "b").add(2);
  backward.counter("patchwork_a_total", "a").add(1);
  EXPECT_EQ(forward.expose_text(), backward.expose_text());
}

TEST(ObsExpose, SeriesWithinFamilySortByLabelString) {
  Registry reg;
  reg.counter("patchwork_d_total", "d", {{"cause", "zeta"}}).add(1);
  reg.counter("patchwork_d_total", "d", {{"cause", "alpha"}}).add(2);
  const std::string text = reg.expose_text();
  const std::size_t alpha = text.find("cause=\"alpha\"");
  const std::size_t zeta = text.find("cause=\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
}

TEST(ObsExpose, BuildInfoIsOptInAndWallClockClass) {
  // Standalone registries never emit it (golden bytes above stay stable).
  Registry plain;
  plain.counter("patchwork_plain_total", "p").add(1);
  EXPECT_EQ(plain.expose_text().find("patchwork_build_info"),
            std::string::npos);

  // Once enabled, the synthetic gauge appears in name-sorted position in
  // the full exposition with the build identity labels...
  Registry enabled;
  enabled.enable_build_info();
  enabled.counter("patchwork_aaa_total", "before").add(1);
  enabled.counter("patchwork_zzz_total", "after").add(1);
  const std::string full = enabled.expose_text();
  const std::size_t info = full.find(
      "patchwork_build_info{git_describe=\"");
  ASSERT_NE(info, std::string::npos) << full;
  EXPECT_NE(full.find("threads=\""), std::string::npos);
  EXPECT_NE(full.find("# TYPE patchwork_build_info gauge\n"),
            std::string::npos);
  EXPECT_LT(full.find("patchwork_aaa_total 1"), info);
  EXPECT_LT(info, full.find("patchwork_zzz_total 1"));

  // ...but the thread count label is run-dependent, so the deterministic
  // view still omits it.
  EXPECT_EQ(enabled.expose_text(/*deterministic_only=*/true)
                .find("patchwork_build_info"),
            std::string::npos);

  // The process-wide registry opts in via register_builtins.
  EXPECT_NE(registry().expose_text().find("patchwork_build_info{"),
            std::string::npos);
}

TEST(ObsExpose, EmptyHistogramStillExposesInfSumCount) {
  Registry reg;
  reg.histogram("patchwork_empty_ns", "never observed");
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("patchwork_empty_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("patchwork_empty_ns_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("patchwork_empty_ns_count 0\n"), std::string::npos);
}

}  // namespace
}  // namespace patchwork::obs
