#ifndef GEOTORCH_TESTS_TEMP_PATH_H_
#define GEOTORCH_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace geotorch {

/// A path under testing::TempDir() whose file (or directory tree) is
/// deleted when the object goes out of scope, whether the test passed
/// or failed, so a test run leaves nothing behind in the shared temp
/// directory. The file name is `name` prefixed with the process id, so
/// copies of one test binary running at once never share a file.
/// Converts to the path string; the conversion is deleted for
/// temporaries, so `std::string p = ScopedTempPath("x");` (which would
/// delete nothing and leak what is then written) does not compile.
class ScopedTempPath {
 public:
  explicit ScopedTempPath(const std::string& name)
      : path_(::testing::TempDir() + "/" + std::to_string(::getpid()) + "-" +
              name) {}
  ~ScopedTempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempPath(const ScopedTempPath&) = delete;
  ScopedTempPath& operator=(const ScopedTempPath&) = delete;

  const std::string& str() const& { return path_; }
  operator const std::string&() const& { return path_; }
  operator const std::string&() const&& = delete;

 private:
  std::string path_;
};

}  // namespace geotorch

#endif  // GEOTORCH_TESTS_TEMP_PATH_H_
