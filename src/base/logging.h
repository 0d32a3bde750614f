/**
 * @file
 * Lightweight logging and runtime-check macros for the GRANITE library.
 *
 * Follows the gem5 fatal/panic distinction: GRANITE_FATAL reports a user
 * error (bad configuration, malformed input) and exits; GRANITE_CHECK and
 * GRANITE_PANIC report internal invariant violations and abort.
 */
#ifndef GRANITE_BASE_LOGGING_H_
#define GRANITE_BASE_LOGGING_H_

#include <sstream>
#include <string>

namespace granite::internal {

/** Emits one formatted INFO line to stderr. */
void LogMessage(const char* file, int line, const std::string& message);

/** Prints the failure message and aborts the process. */
[[noreturn]] void PanicImpl(const char* file, int line,
                            const std::string& message);

/** Prints the failure message and exits with status 1. */
[[noreturn]] void FatalImpl(const char* file, int line,
                            const std::string& message);

/** Stream collector used by the macros below. */
class LogStream {
 public:
  std::ostringstream& stream() { return stream_; }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace granite::internal

/** Progress message: print one INFO line to stderr. */
#define GRANITE_INFO(msg_expr)                                             \
  do {                                                                     \
    ::granite::internal::LogStream granite_log_stream;                     \
    granite_log_stream.stream() << msg_expr;                               \
    ::granite::internal::LogMessage(__FILE__, __LINE__,                    \
                                    granite_log_stream.str());             \
  } while (0)

/** Internal invariant violation: print and abort (gem5 `panic`). */
#define GRANITE_PANIC(msg_expr)                                            \
  do {                                                                     \
    ::granite::internal::LogStream granite_log_stream;                     \
    granite_log_stream.stream() << msg_expr;                               \
    ::granite::internal::PanicImpl(__FILE__, __LINE__,                     \
                                   granite_log_stream.str());              \
  } while (0)

/** User-facing error: print and exit(1) (gem5 `fatal`). */
#define GRANITE_FATAL(msg_expr)                                            \
  do {                                                                     \
    ::granite::internal::LogStream granite_log_stream;                     \
    granite_log_stream.stream() << msg_expr;                               \
    ::granite::internal::FatalImpl(__FILE__, __LINE__,                     \
                                   granite_log_stream.str());              \
  } while (0)

/** Aborts with a diagnostic when `condition` does not hold. */
#define GRANITE_CHECK(condition)                                           \
  do {                                                                     \
    if (!(condition)) {                                                    \
      ::granite::internal::PanicImpl(__FILE__, __LINE__,                   \
                                     "Check failed: " #condition);         \
    }                                                                      \
  } while (0)

/** Like GRANITE_CHECK but appends a streamed message. */
#define GRANITE_CHECK_MSG(condition, msg_expr)                             \
  do {                                                                     \
    if (!(condition)) {                                                    \
      ::granite::internal::LogStream granite_log_stream;                   \
      granite_log_stream.stream()                                          \
          << "Check failed: " #condition << ": " << msg_expr;              \
      ::granite::internal::PanicImpl(__FILE__, __LINE__,                   \
                                     granite_log_stream.str());            \
    }                                                                      \
  } while (0)

#define GRANITE_CHECK_EQ(a, b) GRANITE_CHECK_MSG((a) == (b), #a " vs " #b)
#define GRANITE_CHECK_NE(a, b) GRANITE_CHECK_MSG((a) != (b), #a " vs " #b)
#define GRANITE_CHECK_LT(a, b) GRANITE_CHECK_MSG((a) < (b), #a " vs " #b)
#define GRANITE_CHECK_LE(a, b) GRANITE_CHECK_MSG((a) <= (b), #a " vs " #b)
#define GRANITE_CHECK_GT(a, b) GRANITE_CHECK_MSG((a) > (b), #a " vs " #b)
#define GRANITE_CHECK_GE(a, b) GRANITE_CHECK_MSG((a) >= (b), #a " vs " #b)

#endif  // GRANITE_BASE_LOGGING_H_
