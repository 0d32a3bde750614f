#include "base/logging.h"

#include <cstdio>
#include <cstdlib>

namespace granite::internal {

void LogMessage(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "[INFO %s:%d] %s\n", file, line, message.c_str());
}

void PanicImpl(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "[PANIC %s:%d] %s\n", file, line, message.c_str());
  std::abort();
}

void FatalImpl(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "[FATAL %s:%d] %s\n", file, line, message.c_str());
  std::exit(1);
}

}  // namespace granite::internal
