/**
 * @file
 * Property-based sweeps over the throughput oracle: for every workload
 * family and several seeds, the analytical model must produce finite,
 * bounded, deterministic estimates whose decomposition is internally
 * consistent, and the measurement layer must preserve the oracle's
 * ordering up to its noise band.
 */
#include <cmath>

#include "gtest/gtest.h"
#include "dataset/generator.h"
#include "uarch/measurement.h"
#include "uarch/throughput_model.h"

namespace granite::uarch {
namespace {

struct SweepParam {
  dataset::WorkloadFamily family;
  uint64_t seed;
};

class OracleSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OracleSweepTest, EstimatesAreSaneOnFamilyBlocks) {
  dataset::GeneratorConfig config;
  dataset::BlockGenerator generator(config, GetParam().seed);
  for (int i = 0; i < 25; ++i) {
    const assembly::BasicBlock block =
        generator.GenerateFromFamily(GetParam().family);
    for (const Microarchitecture microarchitecture :
         AllMicroarchitectures()) {
      const ThroughputModel model(microarchitecture);
      const ThroughputBreakdown breakdown = model.Estimate(block);
      // Finite and bounded: no block of <= 12 instructions should exceed
      // ~60 cycles/iteration even fully serialized with LOCK prefixes.
      ASSERT_TRUE(std::isfinite(breakdown.cycles_per_iteration))
          << block.ToString();
      ASSERT_GE(breakdown.cycles_per_iteration, 1.0);
      ASSERT_LE(breakdown.cycles_per_iteration, 700.0) << block.ToString();
      // Decomposition identity.
      const double expected =
          std::max({breakdown.frontend_bound, breakdown.port_bound,
                    breakdown.dependency_bound, 1.0});
      ASSERT_DOUBLE_EQ(breakdown.cycles_per_iteration, expected);
      // Bounds are individually sane.
      ASSERT_GE(breakdown.frontend_bound, 0.0);
      ASSERT_GE(breakdown.port_bound, 0.0);
      ASSERT_GE(breakdown.dependency_bound, -1e-9);
      ASSERT_GE(breakdown.total_uops, 0);
    }
  }
}

TEST_P(OracleSweepTest, MeasurementTracksOracle) {
  dataset::GeneratorConfig config;
  dataset::BlockGenerator generator(config, GetParam().seed + 1000);
  const ThroughputModel model(Microarchitecture::kHaswell);
  for (int i = 0; i < 15; ++i) {
    const assembly::BasicBlock block =
        generator.GenerateFromFamily(GetParam().family);
    const double cycles = model.CyclesPerIteration(block);
    for (const MeasurementTool tool :
         {MeasurementTool::kIthemalTool, MeasurementTool::kBHiveTool}) {
      const double measured =
          MeasureThroughput(block, Microarchitecture::kHaswell, tool);
      // Within the gain/offset/noise envelope of the tool models.
      ASSERT_GT(measured, 100.0 * cycles * 0.8) << block.ToString();
      ASSERT_LT(measured, 100.0 * cycles * 1.4 + 100.0)
          << block.ToString();
    }
  }
}

std::string SweepName(
    const ::testing::TestParamInfo<SweepParam>& info) {
  return "family" + std::to_string(static_cast<int>(info.param.family)) +
         "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, OracleSweepTest,
    ::testing::Values(
        SweepParam{dataset::WorkloadFamily::kDependencyChain, 1},
        SweepParam{dataset::WorkloadFamily::kDependencyChain, 2},
        SweepParam{dataset::WorkloadFamily::kParallel, 1},
        SweepParam{dataset::WorkloadFamily::kMemoryHeavy, 1},
        SweepParam{dataset::WorkloadFamily::kFloatingPoint, 1},
        SweepParam{dataset::WorkloadFamily::kAddressArithmetic, 1},
        SweepParam{dataset::WorkloadFamily::kMixed, 1},
        SweepParam{dataset::WorkloadFamily::kMixed, 2}),
    SweepName);

/** Scaling property: concatenating a block with itself never reduces,
 * and at most doubles (plus epsilon), the cycle estimate. */
class DoublingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DoublingTest, SelfConcatenationIsSubadditive) {
  dataset::GeneratorConfig config;
  config.max_instructions = 6;
  dataset::BlockGenerator generator(config, GetParam());
  const ThroughputModel model(Microarchitecture::kSkylake);
  for (int i = 0; i < 20; ++i) {
    const assembly::BasicBlock block = generator.Generate();
    assembly::BasicBlock doubled = block;
    doubled.instructions.insert(doubled.instructions.end(),
                                block.instructions.begin(),
                                block.instructions.end());
    const double single = model.CyclesPerIteration(block);
    const double twice = model.CyclesPerIteration(doubled);
    ASSERT_GE(twice, single - 1e-9) << block.ToString();
    ASSERT_LE(twice, 2.0 * single + 1e-6) << block.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DoublingTest,
                         ::testing::Values(5, 15, 25));

}  // namespace
}  // namespace granite::uarch
