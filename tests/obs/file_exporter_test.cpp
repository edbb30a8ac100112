// The file exporter's contract: the snapshot file is always a complete
// exposition (atomic replace), and successive snapshots observe successive
// registry states — verified by tailing two snapshots around a counter
// bump.
#include "obs/file_exporter.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "testing/temp_dir.hpp"

namespace patchwork::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Poll `path` until its contents contain `needle` or ~2s elapse.
bool wait_for_content(const std::string& path, const std::string& needle) {
  for (int i = 0; i < 400; ++i) {
    if (slurp(path).find(needle) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ObsFileExporter, TailsTwoSnapshotsAcrossACounterBump) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("exporter_tail.prom");
  Counter& tick = registry().counter("patchwork_exporter_test_total",
                                     "file exporter test counter");
  tick.add(1);

  FileExporter exporter(path, std::chrono::milliseconds(5));
  // Snapshot 1: the pre-bump state must appear on its own.
  ASSERT_TRUE(wait_for_content(path, "patchwork_exporter_test_total 1\n"));

  // Snapshot 2: a later period picks up the bump without any manual write.
  tick.add(41);
  ASSERT_TRUE(wait_for_content(path, "patchwork_exporter_test_total 42\n"));
  EXPECT_GE(exporter.snapshots_written(), 2u);

  exporter.stop();
  const std::uint64_t after_stop = exporter.snapshots_written();
  // stop() wrote a final complete snapshot and the thread is quiet.
  EXPECT_NE(slurp(path).find("patchwork_exporter_test_total 42\n"),
            std::string::npos);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(exporter.snapshots_written(), after_stop);
}

TEST(ObsFileExporter, StopFlushesTheFinalRegistryState) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("exporter_flush.prom");
  Counter& tick = registry().counter("patchwork_exporter_flush_total",
                                     "shutdown flush test counter");
  tick.add(1);

  // An hour-long period: the only snapshots are the immediate first one
  // and the shutdown flush — so the bump below can only reach the file
  // through stop().
  FileExporter exporter(path, std::chrono::hours(1));
  ASSERT_TRUE(wait_for_content(path, "patchwork_exporter_flush_total 1\n"));

  tick.add(99);
  EXPECT_TRUE(exporter.stop());
  EXPECT_TRUE(exporter.final_flush_ok());
  EXPECT_NE(slurp(path).find("patchwork_exporter_flush_total 100\n"),
            std::string::npos)
      << "stop() did not flush the post-bump state";
  // Idempotent: a second stop() reports the same outcome, writes nothing.
  const std::uint64_t written = exporter.snapshots_written();
  EXPECT_TRUE(exporter.stop());
  EXPECT_EQ(exporter.snapshots_written(), written);
}

TEST(ObsFileExporter, SnapshotIsACompleteExposition) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("exporter_complete.prom");
  registry().counter("patchwork_exporter_complete_total", "helper").add(3);
  {
    FileExporter exporter(path, std::chrono::milliseconds(5));
    ASSERT_TRUE(wait_for_content(path, "patchwork_exporter_complete_total"));
  }
  // The snapshot is byte-for-byte an expose_text() rendering (never a
  // partial write): every line parses as comment or sample.
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated final line";
    const std::string line = text.substr(start, end - start);
    EXPECT_TRUE(line.rfind("# ", 0) == 0 ||
                line.find(' ') != std::string::npos)
        << "unparseable line: " << line;
    start = end + 1;
  }
}

}  // namespace
}  // namespace patchwork::obs
