#include "uarch/measurement.h"

#include <cmath>
#include <string>

#include "base/logging.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "uarch/throughput_model.h"

namespace granite::uarch {

std::string_view MeasurementToolName(MeasurementTool tool) {
  switch (tool) {
    case MeasurementTool::kIthemalTool:
      return "IthemalTool";
    case MeasurementTool::kBHiveTool:
      return "BHiveTool";
  }
  return "?";
}

const MeasurementToolParams& GetMeasurementToolParams(MeasurementTool tool) {
  // The Ithemal harness runs blocks under a lightweight loop with a small
  // fixed overhead; the BHive framework unrolls more aggressively and maps
  // all memory accesses onto one page, which shows up as a slightly
  // different systematic gain. Exact values are unimportant; what matters
  // is that they differ consistently between the tools.
  static const MeasurementToolParams ithemal{/*gain=*/1.00, /*offset=*/0.35,
                                             /*noise_sigma=*/0.020};
  static const MeasurementToolParams bhive{/*gain=*/1.07, /*offset=*/0.05,
                                           /*noise_sigma=*/0.030};
  switch (tool) {
    case MeasurementTool::kIthemalTool:
      return ithemal;
    case MeasurementTool::kBHiveTool:
      return bhive;
  }
  GRANITE_PANIC("unknown measurement tool");
}

uint64_t BlockFingerprint(const assembly::BasicBlock& block) {
  // FNV-1a over the canonical textual form, rendered into a per-thread
  // buffer that keeps its capacity, so a warm call allocates nothing.
  thread_local std::string text;
  text.clear();
  block.AppendTo(text);
  return Fnv1a(kFnvOffsetBasis, text);
}

namespace {

/** The tool model applied to the oracle's `cycles` for a block whose
 * fingerprint is `fingerprint`: gain, offset and a deterministic noise
 * term seeded by (block, microarchitecture, tool). */
double ApplyTool(double cycles, uint64_t fingerprint,
                 Microarchitecture microarchitecture, MeasurementTool tool) {
  const MeasurementToolParams& params = GetMeasurementToolParams(tool);
  const uint64_t seed = fingerprint ^
                        (static_cast<uint64_t>(microarchitecture) << 56) ^
                        (static_cast<uint64_t>(tool) << 48);
  Rng rng(seed);
  const double noise = std::exp(params.noise_sigma * rng.NextGaussian());

  const double measured = (cycles * params.gain + params.offset) * noise;
  // Throughput values are reported per 100 iterations of the block
  // (paper §4 and Table 9 caption).
  return measured * 100.0;
}

}  // namespace

double MeasureThroughput(const assembly::BasicBlock& block,
                         Microarchitecture microarchitecture,
                         MeasurementTool tool) {
  const ThroughputModel model(microarchitecture);
  return ApplyTool(model.CyclesPerIteration(block), BlockFingerprint(block),
                   microarchitecture, tool);
}

std::array<double, kNumMicroarchitectures> MeasureOnAllUarchs(
    const assembly::BasicBlock& block, MeasurementTool tool) {
  const std::array<ThroughputBreakdown, kNumMicroarchitectures> breakdowns =
      EstimateOnAllUarchs(block);
  const uint64_t fingerprint = BlockFingerprint(block);
  std::array<double, kNumMicroarchitectures> throughput = {};
  for (const Microarchitecture microarchitecture : AllMicroarchitectures()) {
    const int m = static_cast<int>(microarchitecture);
    throughput[m] = ApplyTool(breakdowns[m].cycles_per_iteration,
                              fingerprint, microarchitecture, tool);
  }
  return throughput;
}

}  // namespace granite::uarch
