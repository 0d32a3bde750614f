/**
 * @file
 * Tests of the process resource-usage probes.
 */
#include "base/resource_usage.h"

#include <cstring>
#include <memory>

#include "gtest/gtest.h"

namespace granite::base {
namespace {

TEST(ResourceUsageTest, CpuUsageIsCumulative) {
  const CpuUsage first = ProcessCpuUsage();
  const CpuUsage second = ProcessCpuUsage();
  EXPECT_GE(second.user_s, first.user_s);
  EXPECT_GE(second.sys_s, first.sys_s);
  EXPECT_GE(second.minor_faults, first.minor_faults);
  const CpuUsage delta = second - first;
  EXPECT_GE(delta.user_s, 0.0);
  EXPECT_GE(delta.sys_s, 0.0);
}

TEST(ResourceUsageTest, TouchingFreshPagesCountsMinorFaults) {
  // 64 MB is far above glibc's mmap threshold, so the buffer comes
  // straight from the kernel and every page faults on first touch: at
  // least once per 2 MB even where transparent huge pages back it.
  constexpr std::size_t kBytes = 64u << 20;
  const CpuUsage before = ProcessCpuUsage();
  const std::unique_ptr<char[]> buffer(new char[kBytes]);
  std::memset(buffer.get(), 1, kBytes);
  const CpuUsage delta = ProcessCpuUsage() - before;
  EXPECT_GE(delta.minor_faults, kBytes / (2u << 20));
  EXPECT_EQ(buffer[kBytes - 1], 1);
}

TEST(ResourceUsageTest, PeakRssIsPositive) { EXPECT_GT(PeakRssMb(), 0.0); }

}  // namespace
}  // namespace granite::base
