#include "base/resource_usage.h"

#include <sys/resource.h>

#include <cstdio>

namespace granite::base {

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  double rss_mb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      rss_mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return rss_mb;
}

CpuUsage CpuUsage::operator-(const CpuUsage& earlier) const {
  CpuUsage delta;
  delta.user_s = user_s - earlier.user_s;
  delta.sys_s = sys_s - earlier.sys_s;
  delta.minor_faults = minor_faults - earlier.minor_faults;
  return delta;
}

CpuUsage ProcessCpuUsage() {
  CpuUsage usage;
  rusage self{};
  if (getrusage(RUSAGE_SELF, &self) != 0) return usage;
  const auto seconds = [](const timeval& time) {
    return static_cast<double>(time.tv_sec) +
           static_cast<double>(time.tv_usec) * 1e-6;
  };
  usage.user_s = seconds(self.ru_utime);
  usage.sys_s = seconds(self.ru_stime);
  usage.minor_faults = static_cast<std::uint64_t>(self.ru_minflt);
  return usage;
}

}  // namespace granite::base
