/**
 * @file
 * Tests of the microarchitecture tables and the analytical throughput
 * model (the ground-truth oracle).
 */
#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "autotune/search.h"
#include "base/string_util.h"
#include "dataset/generator.h"
#include "uarch/measurement.h"
#include "uarch/throughput_model.h"

namespace granite::uarch {
namespace {

using assembly::BasicBlock;

BasicBlock Parse(const char* text) {
  const auto result = assembly::ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

TEST(UarchParamsTest, AllMicroarchitecturesHaveFullTables) {
  for (const Microarchitecture microarchitecture : AllMicroarchitectures()) {
    const UarchParams& params = GetUarchParams(microarchitecture);
    EXPECT_GT(params.num_ports, 0);
    EXPECT_GT(params.issue_width, 0);
    EXPECT_FALSE(params.load_ports.empty());
    EXPECT_FALSE(params.store_data_ports.empty());
    // Every category used by the catalog must have a timing entry, and
    // all its ports must exist.
    for (const auto& [category, timing] : params.timing) {
      (void)category;
      for (int port = 0; port < 32; ++port) {
        if (timing.compute_ports.Contains(port)) {
          EXPECT_LT(port, params.num_ports) << params.name;
        }
      }
      EXPECT_GE(timing.latency, 0);
      EXPECT_GE(timing.compute_uops, 0);
    }
  }
}

TEST(UarchParamsTest, GenerationalDifferencesPreserved) {
  const UarchParams& ivb = GetUarchParams(Microarchitecture::kIvyBridge);
  const UarchParams& hsw = GetUarchParams(Microarchitecture::kHaswell);
  const UarchParams& skl = GetUarchParams(Microarchitecture::kSkylake);
  // Haswell/Skylake have more ports than Ivy Bridge.
  EXPECT_LT(ivb.num_ports, hsw.num_ports);
  // Division got faster across generations.
  using assembly::InstructionCategory;
  EXPECT_GT(ivb.TimingFor(InstructionCategory::kDivInteger).latency,
            skl.TimingFor(InstructionCategory::kDivInteger).latency);
  // Skylake doubled FP multiply throughput (two ports vs one).
  EXPECT_GT(skl.TimingFor(InstructionCategory::kVecFpMul)
                .compute_ports.Count(),
            ivb.TimingFor(InstructionCategory::kVecFpMul)
                .compute_ports.Count());
}

TEST(PortSetTest, BasicOperations) {
  const PortSet ports({0, 2, 5});
  EXPECT_TRUE(ports.Contains(0));
  EXPECT_FALSE(ports.Contains(1));
  EXPECT_TRUE(ports.Contains(5));
  EXPECT_EQ(ports.Count(), 3);
  EXPECT_FALSE(ports.empty());
  EXPECT_TRUE(PortSet{}.empty());
}

class ThroughputModelTest
    : public ::testing::TestWithParam<Microarchitecture> {
 protected:
  ThroughputModel model_{GetParam()};
};

TEST_P(ThroughputModelTest, EstimateIsMaxOfBounds) {
  const BasicBlock block = Parse("ADD RAX, RBX\nIMUL RCX, RDX\nMOV RSI, 1");
  const ThroughputBreakdown breakdown = model_.Estimate(block);
  EXPECT_GE(breakdown.cycles_per_iteration, breakdown.frontend_bound);
  EXPECT_GE(breakdown.cycles_per_iteration, breakdown.port_bound);
  EXPECT_GE(breakdown.cycles_per_iteration, breakdown.dependency_bound);
  EXPECT_GE(breakdown.cycles_per_iteration, 1.0);
}

TEST_P(ThroughputModelTest, EstimateIsDeterministic) {
  const BasicBlock block = Parse("ADD RAX, RBX\nSUB RCX, RAX");
  EXPECT_DOUBLE_EQ(model_.CyclesPerIteration(block),
                   model_.CyclesPerIteration(block));
}

TEST_P(ThroughputModelTest, SerialChainSlowerThanParallel) {
  // Eight multiplies through one register vs eight independent ones.
  const BasicBlock serial = Parse(
      "IMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\n"
      "IMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX");
  const BasicBlock parallel = Parse(
      "IMUL RAX, RBX\nIMUL RCX, RBX\nIMUL RDX, RBX\nIMUL RSI, RBX\n"
      "IMUL RDI, RBX\nIMUL R8, RBX\nIMUL R9, RBX\nIMUL R10, RBX");
  EXPECT_GT(model_.CyclesPerIteration(serial),
            model_.CyclesPerIteration(parallel) * 1.5);
}

TEST_P(ThroughputModelTest, SerialImulChainIsLatencyBound) {
  // A loop-carried IMUL chain of length 4 should cost ~4 * latency.
  const BasicBlock block = Parse(
      "IMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX");
  const ThroughputBreakdown breakdown = model_.Estimate(block);
  const int latency = GetUarchParams(GetParam())
                          .TimingFor(assembly::InstructionCategory::kMulInteger)
                          .latency;
  EXPECT_NEAR(breakdown.dependency_bound, 4.0 * latency, 0.51);
}

TEST_P(ThroughputModelTest, DivisionIsExpensive) {
  const BasicBlock div = Parse("DIV RCX");
  const BasicBlock add = Parse("ADD RAX, RCX");
  EXPECT_GT(model_.CyclesPerIteration(div),
            5.0 * model_.CyclesPerIteration(add));
}

TEST_P(ThroughputModelTest, MovBreaksDependencyChain) {
  // Rewriting the accumulator each iteration cuts the loop-carried chain.
  const BasicBlock carried = Parse(
      "IMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX");
  const BasicBlock cut = Parse(
      "MOV RAX, 7\nIMUL RAX, RBX\nIMUL RAX, RBX\nIMUL RAX, RBX\n"
      "IMUL RAX, RBX");
  EXPECT_LT(model_.Estimate(cut).dependency_bound,
            model_.Estimate(carried).dependency_bound);
}

TEST_P(ThroughputModelTest, AppendingIndependentWorkNeverSpeedsUp) {
  const BasicBlock base = Parse("ADD RAX, RBX\nADD RCX, RDX");
  BasicBlock extended = base;
  extended.instructions.push_back(
      assembly::ParseInstruction("ADD R11, 1").value.value());
  EXPECT_GE(model_.CyclesPerIteration(extended),
            model_.CyclesPerIteration(base) - 1e-9);
}

TEST_P(ThroughputModelTest, StoreForwardingSerializesMemoryRoundTrip) {
  // Store then load through (conservatively aliased) memory is slower
  // than two independent loads.
  const BasicBlock round_trip = Parse(
      "MOV QWORD PTR [RDI], RAX\nMOV RBX, QWORD PTR [RSI]\n"
      "ADD RAX, RBX");
  const BasicBlock loads_only = Parse(
      "MOV RCX, QWORD PTR [RDI]\nMOV RBX, QWORD PTR [RSI]\n"
      "ADD RAX, RBX");
  EXPECT_GE(model_.Estimate(round_trip).dependency_bound,
            model_.Estimate(loads_only).dependency_bound);
}

TEST_P(ThroughputModelTest, LockPrefixAddsSerialization) {
  const BasicBlock plain = Parse("ADD DWORD PTR [RAX], EBX");
  const BasicBlock locked = Parse("LOCK ADD DWORD PTR [RAX], EBX");
  EXPECT_GT(model_.CyclesPerIteration(locked),
            model_.CyclesPerIteration(plain));
}

TEST_P(ThroughputModelTest, FrontendBoundForWideParallelBlocks) {
  // 16 independent single-uop instructions on a 4-wide machine need at
  // least 4 cycles.
  std::string text;
  const char* regs[] = {"RAX", "RBX", "RCX", "RDX", "RSI", "RDI", "R8",
                        "R9",  "R10", "R11", "R12", "R13", "R14", "R15",
                        "RBP", "RAX"};
  for (int i = 0; i < 16; ++i) {
    text += std::string("MOV ") + regs[i] + ", 1\n";
  }
  const ThroughputBreakdown breakdown = model_.Estimate(Parse(text.c_str()));
  EXPECT_NEAR(breakdown.frontend_bound, 4.0, 1e-9);
  EXPECT_GE(breakdown.cycles_per_iteration, 4.0);
}

TEST_P(ThroughputModelTest, EmptyBlockCostsOneCycle) {
  EXPECT_DOUBLE_EQ(model_.CyclesPerIteration(BasicBlock{}), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllUarchs, ThroughputModelTest,
                         ::testing::ValuesIn(AllMicroarchitectures()),
                         [](const auto& info) {
                           switch (info.param) {
                             case Microarchitecture::kIvyBridge:
                               return "IvyBridge";
                             case Microarchitecture::kHaswell:
                               return "Haswell";
                             case Microarchitecture::kSkylake:
                               return "Skylake";
                           }
                           return "Unknown";
                         });

TEST(ThroughputModelCrossUarchTest, SkylakeDividesFasterThanIvyBridge) {
  const BasicBlock block = Parse("DIV RCX\nDIV RCX");
  const ThroughputModel ivb(Microarchitecture::kIvyBridge);
  const ThroughputModel skl(Microarchitecture::kSkylake);
  EXPECT_GT(ivb.CyclesPerIteration(block), skl.CyclesPerIteration(block));
}

TEST(ThroughputModelCrossUarchTest, UarchsDisagreeOnFpHeavyCode) {
  const BasicBlock block = Parse(
      "MULSD XMM0, XMM1\nMULSD XMM2, XMM1\nMULSD XMM3, XMM1\n"
      "MULSD XMM4, XMM1");
  const ThroughputModel ivb(Microarchitecture::kIvyBridge);
  const ThroughputModel skl(Microarchitecture::kSkylake);
  // Skylake has two FP multiply ports; Ivy Bridge has one.
  EXPECT_GT(ivb.CyclesPerIteration(block), skl.CyclesPerIteration(block));
}

// ---- Pinned oracle bits -----------------------------------------------

/** Folds the bit patterns of every ThroughputBreakdown field into
 * `hash`. Training labels are these bits, so the digests below pin them
 * the way canonical_text_test pins block fingerprints. */
uint64_t FoldBreakdown(uint64_t hash, const ThroughputBreakdown& breakdown) {
  const double bounds[] = {breakdown.frontend_bound, breakdown.port_bound,
                           breakdown.dependency_bound,
                           breakdown.cycles_per_iteration};
  char bytes[sizeof(bounds) + sizeof(int32_t)];
  const int32_t uops = breakdown.total_uops;
  std::memcpy(bytes, bounds, sizeof(bounds));
  std::memcpy(bytes + sizeof(bounds), &uops, sizeof(uops));
  return Fnv1a(hash, std::string_view(bytes, sizeof(bytes)));
}

/** A digest of the breakdowns of 2,000 default-generator blocks on every
 * microarchitecture. A change moves every oracle label and must be made
 * on purpose. */
TEST(ThroughputModelGoldenTest, GeneratorBreakdownDigest) {
  for (const auto& [microarchitecture, expected] :
       {std::pair{Microarchitecture::kIvyBridge, 0x3EE9AFA79A5A7493ull},
        std::pair{Microarchitecture::kHaswell, 0x16EC75193B2320BEull},
        std::pair{Microarchitecture::kSkylake, 0x61BEF0CFCF3D6765ull}}) {
    const ThroughputModel model(microarchitecture);
    dataset::BlockGenerator generator(dataset::GeneratorConfig{}, 2024);
    uint64_t digest = kFnvOffsetBasis;
    for (int i = 0; i < 2000; ++i) {
      digest = FoldBreakdown(digest, model.Estimate(generator.Generate()));
    }
    EXPECT_EQ(digest, expected)
        << GetUarchParams(microarchitecture).name << " 0x" << std::hex
        << digest;
  }
}

/** Hand-written blocks with the data-flow shapes the generator never
 * emits: REP string operations, implicit accumulators, implicit stack
 * memory, segment and index address components, flag-only readers and
 * writers. */
const char* const kImplicitOperandBlocks[] = {
    "REP MOVSB\nADD RCX, 1",
    "REPNE STOSQ\nMOV RDI, RCX",
    "REPE MOVSQ\nREPZ STOSB\nREPNZ MOVSW",
    "MOVSB\nSTOSD\nDEC RCX",
    "MUL RCX\nADD RAX, RDX\nIMUL RBX\nIMUL RBX, RAX, 3",
    "DIV RCX\nIDIV QWORD PTR [RSI + 8]\nCQO\nCDQE",
    "LOCK CMPXCHG QWORD PTR [RDI], RSI\nLOCK XADD DWORD PTR [RBX], EAX",
    "PUSH QWORD PTR [RSP + 8]\nPOP RAX\nPUSH RAX\nPOP QWORD PTR [RBP]",
    "MOV RAX, QWORD PTR FS:[RBX + 4*RCX + 16]\n"
    "LEA RDX, GS:[RAX + 8*RDX]\nADD QWORD PTR [RDX], RAX",
    "MULX R8, R9, RAX\nADD RDX, R9\nSHLX R10, R8, RCX",
    "LAHF\nCMC\nSAHF\nADC RAX, RBX\nSETB CL",
    "CMP RAX, RBX\nCMOVNE RCX, QWORD PTR [RSP]\nRCL RCX, 1\nCLC",
    "XCHG RAX, QWORD PTR [RDI]\nBTS QWORD PTR [RDI + 8], RAX",
    "VFMADD231PS YMM0, YMM1, YMMWORD PTR [RSI]\n"
    "UCOMISD XMM0, XMM1\nSETA AL",
};

/** The same digest over kImplicitOperandBlocks. */
TEST(ThroughputModelGoldenTest, ImplicitOperandBreakdownDigest) {
  for (const auto& [microarchitecture, expected] :
       {std::pair{Microarchitecture::kIvyBridge, 0xD8C45F6DE3C6A295ull},
        std::pair{Microarchitecture::kHaswell, 0x602DD8C42B467AA3ull},
        std::pair{Microarchitecture::kSkylake, 0x8D6D07C21F8A23BDull}}) {
    const ThroughputModel model(microarchitecture);
    uint64_t digest = kFnvOffsetBasis;
    for (const char* text : kImplicitOperandBlocks) {
      digest = FoldBreakdown(digest, model.Estimate(Parse(text)));
    }
    EXPECT_EQ(digest, expected)
        << GetUarchParams(microarchitecture).name << " 0x" << std::hex
        << digest;
  }
}

// ---- One decode for every microarchitecture ----------------------------

/** The blocks both golden digests fold. */
std::vector<BasicBlock> GoldenBlocks() {
  dataset::BlockGenerator generator(dataset::GeneratorConfig{}, 2024);
  std::vector<BasicBlock> blocks = generator.GenerateMany(2000);
  for (const char* text : kImplicitOperandBlocks) {
    blocks.push_back(Parse(text));
  }
  return blocks;
}

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** Field by field, so struct padding does not take part. */
bool SameBreakdown(const ThroughputBreakdown& a,
                   const ThroughputBreakdown& b) {
  return SameBits(a.frontend_bound, b.frontend_bound) &&
         SameBits(a.port_bound, b.port_bound) &&
         SameBits(a.dependency_bound, b.dependency_bound) &&
         SameBits(a.cycles_per_iteration, b.cycles_per_iteration) &&
         a.total_uops == b.total_uops;
}

constexpr MeasurementTool kTools[] = {MeasurementTool::kIthemalTool,
                                      MeasurementTool::kBHiveTool};

/** EstimateOnAllUarchs and MeasureOnAllUarchs decode a block once for
 * all three microarchitectures; every bit must equal the one-model
 * Estimate and the one-microarchitecture MeasureThroughput. */
TEST(AllUarchOracleTest, OneDecodeMatchesPerUarchPaths) {
  std::size_t mismatches = 0;
  for (const BasicBlock& block : GoldenBlocks()) {
    const auto breakdowns = EstimateOnAllUarchs(block);
    for (const Microarchitecture microarchitecture : AllMicroarchitectures()) {
      const int m = static_cast<int>(microarchitecture);
      if (!SameBreakdown(breakdowns[m],
                         ThroughputModel(microarchitecture).Estimate(block))) {
        ADD_FAILURE() << "breakdown on " << m << ":\n" << block.ToString();
        ++mismatches;
      }
    }
    for (const MeasurementTool tool : kTools) {
      const auto measured = MeasureOnAllUarchs(block, tool);
      for (const Microarchitecture microarchitecture :
           AllMicroarchitectures()) {
        const int m = static_cast<int>(microarchitecture);
        if (!SameBits(measured[m],
                      MeasureThroughput(block, microarchitecture, tool))) {
          ADD_FAILURE() << "measurement on " << m << ":\n"
                        << block.ToString();
          ++mismatches;
        }
      }
    }
    ASSERT_LT(mismatches, 10u) << "stopping after 10 mismatches";
  }
}

/** What one thread reads from the oracle for every block, in order. */
struct OracleReadings {
  std::vector<ThroughputBreakdown> haswell;
  std::vector<double> client_cycles;
  std::vector<std::array<ThroughputBreakdown, kNumMicroarchitectures>> all;
  std::vector<std::array<double, kNumMicroarchitectures>> measured;
};

OracleReadings ReadOracle(const std::vector<BasicBlock>& blocks,
                          std::size_t first, const ThroughputModel& model,
                          autotune::AnalyticalCostClient& client) {
  OracleReadings readings;
  for (std::size_t k = 0; k < blocks.size(); ++k) {
    const BasicBlock& block = blocks[(first + k) % blocks.size()];
    readings.haswell.push_back(model.Estimate(block));
    auto futures = client.SubmitWave({&block});
    readings.client_cycles.push_back(futures[0]->get());
    readings.all.push_back(EstimateOnAllUarchs(block));
    readings.measured.push_back(
        MeasureOnAllUarchs(block, MeasurementTool::kBHiveTool));
  }
  return readings;
}

/** Four threads share one ThroughputModel and one AnalyticalCostClient,
 * each starting at a different block so their per-thread scratches see
 * different shapes at the same time; every reading must equal the
 * serial one. */
TEST(AllUarchOracleTest, ConcurrentCallersReproduceSerialBits) {
  const std::vector<BasicBlock> blocks = GoldenBlocks();
  const ThroughputModel model(Microarchitecture::kHaswell);
  autotune::AnalyticalCostClient client(Microarchitecture::kHaswell);
  const OracleReadings serial = ReadOracle(blocks, 0, model, client);

  constexpr int kThreads = 4;
  std::vector<OracleReadings> readings(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      readings[t] = ReadOracle(blocks, t * blocks.size() / kThreads, model,
                               client);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::size_t first = t * blocks.size() / kThreads;
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      const std::size_t i = (first + k) % blocks.size();
      bool same =
          SameBreakdown(readings[t].haswell[k], serial.haswell[i]) &&
          SameBits(readings[t].client_cycles[k], serial.client_cycles[i]);
      for (int m = 0; m < kNumMicroarchitectures; ++m) {
        same = same &&
               SameBreakdown(readings[t].all[k][m], serial.all[i][m]) &&
               SameBits(readings[t].measured[k][m], serial.measured[i][m]);
      }
      if (!same) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace granite::uarch
