// A private scratch directory per test case under ::testing::TempDir().
//
// gtest_discover_tests runs every test case as its own process, so under
// `ctest -j` two cases writing one fixed file name race on it. A TestTempDir
// is named after the running suite, test and process id, created empty, and
// removed with everything in it when the object goes out of scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace patchwork::testing {

class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "patchwork";
    if (info != nullptr) {
      name += std::string(".") + info->test_suite_name() + "." + info->name();
    }
    name += "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // Parameterized names.
    dir_ = std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  /// Path of `file` inside this test's directory.
  std::string path(std::string_view file) const {
    return (dir_ / file).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace patchwork::testing
