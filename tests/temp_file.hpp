#pragma once
// A test's temporary file under ::testing::TempDir(), removed when the object
// naming it is destroyed: at the end of the test for a local, at process
// exit for a function-local static. ctest runs every test in its own
// process, so a file that is never removed piles up once per run.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace magic::testing {

class ScopedTempFile {
 public:
  explicit ScopedTempFile(const std::string& name) : path_(::testing::TempDir() + name) {}
  ~ScopedTempFile() { std::remove(path_.c_str()); }
  ScopedTempFile(const ScopedTempFile&) = delete;
  ScopedTempFile& operator=(const ScopedTempFile&) = delete;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace magic::testing
