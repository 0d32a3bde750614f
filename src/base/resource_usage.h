/**
 * @file
 * Process resource-usage probes.
 *
 * Used as bounded-memory evidence by the streaming-dataset tooling:
 * `granite_cli dataset synthesize` and bench_dataset_io report the peak
 * RSS after writing a corpus, which must track the shard window rather
 * than the corpus size. The serving and autotune benches difference two
 * ProcessCpuUsage() samples to report kernel-side CPU and page faults,
 * the cost of heap memory the allocator returns and then faults back in.
 */
#ifndef GRANITE_BASE_RESOURCE_USAGE_H_
#define GRANITE_BASE_RESOURCE_USAGE_H_

#include <cstdint>

namespace granite::base {

/** Peak resident set size of this process in MB (VmHWM from
 * /proc/self/status); 0.0 where /proc is unavailable. */
double PeakRssMb();

/** Cumulative CPU time and page faults of this process, all threads. */
struct CpuUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  /** Faults served without I/O, e.g. a first touch of a fresh page. */
  std::uint64_t minor_faults = 0;

  /** The usage between an earlier sample and this one. */
  CpuUsage operator-(const CpuUsage& earlier) const;
};

/** This process's usage so far (getrusage(RUSAGE_SELF)); all zero when
 * the call fails. */
CpuUsage ProcessCpuUsage();

}  // namespace granite::base

#endif  // GRANITE_BASE_RESOURCE_USAGE_H_
