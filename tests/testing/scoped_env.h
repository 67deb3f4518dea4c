// Scoped environment overrides for tests that steer the runtime dispatch
// (PINOCCHIO_SIMD_TIER) around a kernel's construction.

#ifndef PINOCCHIO_TESTS_TESTING_SCOPED_ENV_H_
#define PINOCCHIO_TESTS_TESTING_SCOPED_ENV_H_

#include <cstdlib>
#include <string>

namespace pinocchio {
namespace testing_helpers {

/// Sets (or clears, when `value` is null) an environment variable for the
/// current scope and restores the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

}  // namespace testing_helpers
}  // namespace pinocchio

#endif  // PINOCCHIO_TESTS_TESTING_SCOPED_ENV_H_
