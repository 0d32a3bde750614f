/**
 * @file
 * Measurement-tool models.
 *
 * The paper's two datasets were collected with different measurement
 * methodologies (§4): the Ithemal dataset with the Ithemal timing harness
 * and BHive with its own measurement framework. The paper observes that
 * models trained on one dataset degrade when tested on the other purely
 * because of this methodology difference.
 *
 * This module reproduces that structure: a MeasurementTool wraps the
 * analytical throughput oracle with a tool-specific systematic bias and a
 * small deterministic noise term, so "Ithemal-style" and "BHive-style"
 * datasets of the same blocks disagree slightly and consistently. All
 * noise is a pure function of (block, microarchitecture, tool), keeping
 * dataset generation reproducible.
 *
 * Following the paper (§4 and the Table 9 caption), reported throughput
 * values are cycles per 100 iterations of the block.
 *
 * Thread-safety: every function here is pure (the tool parameter tables
 * are immutable statics), so all of them are safe to call concurrently.
 */
#ifndef GRANITE_UARCH_MEASUREMENT_H_
#define GRANITE_UARCH_MEASUREMENT_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "asm/instruction.h"
#include "uarch/microarchitecture.h"

namespace granite::uarch {

/** The two measurement methodologies of the paper's datasets. */
enum class MeasurementTool {
  kIthemalTool,
  kBHiveTool,
};

/** Display name of a tool. */
std::string_view MeasurementToolName(MeasurementTool tool);

/** Tool-model parameters; exposed for tests and ablations. */
struct MeasurementToolParams {
  /** Multiplicative systematic bias of the methodology. */
  double gain = 1.0;
  /** Additive per-iteration overhead in cycles (loop harness cost). */
  double offset = 0.0;
  /** Standard deviation of the multiplicative log-normal noise. */
  double noise_sigma = 0.01;
};

/** Returns the parameters of `tool`. */
const MeasurementToolParams& GetMeasurementToolParams(MeasurementTool tool);

/**
 * Measures `block` on `microarchitecture` with `tool`.
 * @return throughput in cycles per 100 iterations (paper's value range).
 */
double MeasureThroughput(const assembly::BasicBlock& block,
                         Microarchitecture microarchitecture,
                         MeasurementTool tool);

/**
 * MeasureThroughput of `block` with `tool` on every microarchitecture,
 * indexed by enum value: one oracle decode (EstimateOnAllUarchs) and
 * one fingerprint serve all of them. The dataset layer labels every
 * sample with this.
 */
std::array<double, kNumMicroarchitectures> MeasureOnAllUarchs(
    const assembly::BasicBlock& block, MeasurementTool tool);

/**
 * Deterministic 64-bit fingerprint of a basic block's textual form, used
 * to seed per-block measurement noise and dataset splits. A warm call
 * allocates nothing (the text goes to a reused per-thread buffer).
 */
uint64_t BlockFingerprint(const assembly::BasicBlock& block);

}  // namespace granite::uarch

#endif  // GRANITE_UARCH_MEASUREMENT_H_
