// Minimal leveled logging. Messages below the fixed threshold (kWarn)
// cost one comparison and are dropped. Not thread-safe by
// design: DPDPU's simulator is single-threaded; the process-wide compress
// memo is the only code real threads share, and it does not log.

#ifndef DPDPU_COMMON_LOGGING_H_
#define DPDPU_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dpdpu {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Log threshold; messages below it are dropped.
LogLevel GetLogLevel();

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define DPDPU_LOG(level)                                              \
  if (::dpdpu::LogLevel::k##level < ::dpdpu::GetLogLevel()) {         \
  } else                                                              \
    ::dpdpu::internal_logging::LogMessage(::dpdpu::LogLevel::k##level, \
                                          __FILE__, __LINE__)

/// Invariant check that survives NDEBUG: aborts with a message when the
/// condition fails. Use for internal invariants whose violation means a
/// bug, not for user-input validation (return Status for those).
#define DPDPU_CHECK(cond)                                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "DPDPU_CHECK failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

}  // namespace dpdpu

#endif  // DPDPU_COMMON_LOGGING_H_
