/**
 * @file
 * Analytical steady-state throughput model.
 *
 * Estimates the cycles one iteration of a basic block takes when executed
 * in a loop (the BHive measurement setup). The estimate is the maximum of
 * three classic bounds, the same decomposition used by UiCA-style
 * analytical models:
 *
 *  1. front-end bound: total uops / issue width;
 *  2. port-pressure bound: the load of the busiest execution port under a
 *     balanced fractional assignment of uops to their allowed ports;
 *  3. dependency bound: the per-iteration growth of the data-flow critical
 *     path across loop-carried register/flag/memory dependencies,
 *     measured by unrolled data-flow simulation.
 *
 * The register and memory reads and writes come from
 * assembly::DataFlowFor, the decoder the autotuner's legality checks
 * also use; this model adds only timing, uop, LOCK and REP costs. The
 * decode does not depend on the microarchitecture, so
 * EstimateOnAllUarchs decodes a block once and estimates it on all
 * three; ThroughputModel::Estimate is the same computation for one.
 *
 * Thread-safety: a ThroughputModel is immutable after construction and
 * every method is const, so one instance is safe to call concurrently
 * from any number of threads (the autotuner's thread-safe
 * AnalyticalCostClient shares one instance among all its callers). The
 * decode and the simulation's working arrays live in a per-thread
 * scratch (a few KB, reused by every call on that thread), so an
 * estimate allocates only while a thread first meets a longer block.
 */
#ifndef GRANITE_UARCH_THROUGHPUT_MODEL_H_
#define GRANITE_UARCH_THROUGHPUT_MODEL_H_

#include <array>

#include "asm/instruction.h"
#include "uarch/microarchitecture.h"

namespace granite::uarch {

/** The three bounds plus their maximum, all in cycles per iteration. */
struct ThroughputBreakdown {
  double frontend_bound = 0.0;
  double port_bound = 0.0;
  double dependency_bound = 0.0;
  /** max(frontend, port, dependency): the model's estimate. */
  double cycles_per_iteration = 0.0;
  /** Total uops of one block iteration. */
  int total_uops = 0;
};

/** Steady-state throughput estimator for one microarchitecture. */
class ThroughputModel {
 public:
  explicit ThroughputModel(Microarchitecture microarchitecture);

  /** Full bound decomposition for `block`. All instructions must be
   * supported by the semantics catalog. */
  ThroughputBreakdown Estimate(const assembly::BasicBlock& block) const;

  /** Shorthand for Estimate(block).cycles_per_iteration. */
  double CyclesPerIteration(const assembly::BasicBlock& block) const;

  Microarchitecture microarchitecture() const { return microarchitecture_; }

 private:
  Microarchitecture microarchitecture_;
  const UarchParams& params_;
};

/** Estimate(block) of every microarchitecture, indexed by enum value,
 * from one decode of `block`. Each entry has the bits
 * ThroughputModel(m).Estimate(block) returns. */
std::array<ThroughputBreakdown, kNumMicroarchitectures> EstimateOnAllUarchs(
    const assembly::BasicBlock& block);

}  // namespace granite::uarch

#endif  // GRANITE_UARCH_THROUGHPUT_MODEL_H_
