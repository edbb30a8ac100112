#include "util/file_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "testing/temp_dir.hpp"

namespace patchwork::util {
namespace {

TEST(FileIo, AtomicWriteCreatesAndReplaces) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("file_io_atomic.bin");
  ASSERT_TRUE(write_file_atomic(path, std::string_view("first")));
  auto bytes = read_file_bytes(path, 1 << 20);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "first");

  ASSERT_TRUE(write_file_atomic(path, std::string_view("second, longer")));
  bytes = read_file_bytes(path, 1 << 20);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "second, longer");
}

TEST(FileIo, BoundedReadRejectsOversizedFile) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("file_io_bounded.bin");
  ASSERT_TRUE(write_file_atomic(path, std::string_view("0123456789")));
  EXPECT_TRUE(read_file_bytes(path, 10).has_value());
  EXPECT_FALSE(read_file_bytes(path, 9).has_value())
      << "a file over the bound must be rejected, not truncated";
}

TEST(FileIo, ReadMissingFileFails) {
  const patchwork::testing::TestTempDir tmp;
  EXPECT_FALSE(read_file_bytes(tmp.path("no_such_file"), 1024).has_value());
  EXPECT_FALSE(file_size_bytes(tmp.path("no_such_file")).has_value());
}

TEST(FileIo, AppendAndTruncate) {
  const patchwork::testing::TestTempDir tmp;
  const std::string path = tmp.path("file_io_append.bin");
  const std::vector<std::uint8_t> a{'a', 'b', 'c'};
  const std::vector<std::uint8_t> b{'d', 'e'};
  ASSERT_TRUE(append_file(path, a));
  ASSERT_TRUE(append_file(path, b));
  EXPECT_EQ(file_size_bytes(path).value_or(0), 5u);

  ASSERT_TRUE(truncate_file(path, 3));
  auto bytes = read_file_bytes(path, 1024);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), "abc");
  // Growing via truncate_file is refused: recovery only ever shrinks.
  EXPECT_FALSE(truncate_file(path, 10));
}

}  // namespace
}  // namespace patchwork::util
