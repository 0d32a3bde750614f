/**
 * @file
 * Tests of the microarchitecture tables and the analytical throughput
 * model (the ground-truth oracle).
 */
#include <cstdint>
#include <cstring>
#include <string_view>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "base/string_util.h"
#include "dataset/generator.h"
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

/** The same digest over hand-written blocks with the data-flow shapes
 * the generator never emits: REP string operations, implicit
 * accumulators, implicit stack memory, segment and index address
 * components, flag-only readers and writers. */
TEST(ThroughputModelGoldenTest, ImplicitOperandBreakdownDigest) {
  const char* const blocks[] = {
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
  for (const auto& [microarchitecture, expected] :
       {std::pair{Microarchitecture::kIvyBridge, 0xD8C45F6DE3C6A295ull},
        std::pair{Microarchitecture::kHaswell, 0x602DD8C42B467AA3ull},
        std::pair{Microarchitecture::kSkylake, 0x8D6D07C21F8A23BDull}}) {
    const ThroughputModel model(microarchitecture);
    uint64_t digest = kFnvOffsetBasis;
    for (const char* text : blocks) {
      digest = FoldBreakdown(digest, model.Estimate(Parse(text)));
    }
    EXPECT_EQ(digest, expected)
        << GetUarchParams(microarchitecture).name << " 0x" << std::hex
        << digest;
  }
}

}  // namespace
}  // namespace granite::uarch
