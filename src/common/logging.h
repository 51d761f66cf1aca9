#ifndef MLAKE_COMMON_LOGGING_H_
#define MLAKE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace mlake {

/// Severity levels for the process-wide logger.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Sets the minimum severity emitted to stderr. Default: kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/// Accumulates one log line and emits it (to stderr) on destruction.
/// kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

/// Streams a log line at the given severity when enabled, e.g.
///   MLAKE_LOG_INFO << "ingested " << n << " models";
#define MLAKE_LOG_DEBUG \
  ::mlake::internal::LogMessage(::mlake::LogLevel::kDebug, __FILE__, __LINE__)
#define MLAKE_LOG_INFO \
  ::mlake::internal::LogMessage(::mlake::LogLevel::kInfo, __FILE__, __LINE__)
#define MLAKE_LOG_WARNING                                            \
  ::mlake::internal::LogMessage(::mlake::LogLevel::kWarning, __FILE__, \
                                __LINE__)
#define MLAKE_LOG_ERROR \
  ::mlake::internal::LogMessage(::mlake::LogLevel::kError, __FILE__, __LINE__)

/// Aborts with a message when `cond` is false. Active in all build types:
/// these guard internal invariants, not user input (user input produces
/// Status errors instead).
#define MLAKE_CHECK(cond)                                                   \
  if (!(cond))                                                              \
  ::mlake::internal::LogMessage(::mlake::LogLevel::kFatal, __FILE__,        \
                                __LINE__)                                   \
      << "Check failed: " #cond " "

#define MLAKE_DCHECK(cond) MLAKE_CHECK(cond)

}  // namespace mlake

#endif  // MLAKE_COMMON_LOGGING_H_
