// Test helper: sets SPIFFI_JOBS, the core count sim::DefaultJobs()
// reports, for its lifetime, so thread-count rules are exercised the
// same way on any host. Restores the previous value on destruction.

#ifndef SPIFFI_TESTS_SCOPED_JOBS_H_
#define SPIFFI_TESTS_SCOPED_JOBS_H_

#include <cstdlib>
#include <optional>
#include <string>

namespace spiffi {

class ScopedJobs {
 public:
  explicit ScopedJobs(int jobs) {
    if (const char* old = std::getenv("SPIFFI_JOBS")) saved_ = old;
    setenv("SPIFFI_JOBS", std::to_string(jobs).c_str(), 1);
  }
  ~ScopedJobs() {
    if (saved_) {
      setenv("SPIFFI_JOBS", saved_->c_str(), 1);
    } else {
      unsetenv("SPIFFI_JOBS");
    }
  }
  ScopedJobs(const ScopedJobs&) = delete;
  ScopedJobs& operator=(const ScopedJobs&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace spiffi

#endif  // SPIFFI_TESTS_SCOPED_JOBS_H_
