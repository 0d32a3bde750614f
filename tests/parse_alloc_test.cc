/**
 * @file
 * Heap-allocation budgets of the import path and the throughput oracle.
 * This binary replaces the global operator new with a counting one, so
 * the tests can pin how many allocations ParseBasicBlock, ImportBhiveCsv
 * and the oracle make: the parser allocates only what the returned block
 * owns, an imported row only a fixed budget more, and a warm oracle,
 * labeller (MeasureOnAllUarchs) and BlockFingerprint nothing. A change
 * that brings back per-operand strings, per-row vectors, per-estimate
 * arrays or per-fingerprint text fails here rather than only showing up
 * as slower imports or labelling.
 */
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "base/rng.h"
#include "dataset/generator.h"
#include "dataset/importer.h"
#include "uarch/measurement.h"
#include "uarch/throughput_model.h"
#include "gtest/gtest.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms of the default operator new call this one,
// so counting here counts every non-aligned allocation. noinline keeps
// GCC from pairing an inlined free() with a `new` expression and warning
// about a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}

[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

namespace granite {
namespace {

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/** What a parsed block owns on the heap: the instruction vector, one
 * operand vector per instruction with operands, one prefix vector per
 * prefixed instruction, and any mnemonic too long for the string's
 * inline buffer. */
std::uint64_t OwnedAllocations(const assembly::BasicBlock& block) {
  const std::size_t inline_capacity = std::string().capacity();
  std::uint64_t owned = 1;
  for (const assembly::Instruction& instruction : block.instructions) {
    owned += instruction.operands.empty() ? 0 : 1;
    owned += instruction.prefixes.empty() ? 0 : 1;
    owned += instruction.mnemonic.size() > inline_capacity ? 1 : 0;
  }
  return owned;
}

TEST(ParseAllocationTest, ParseAllocatesOnlyWhatTheBlockOwns) {
  ASSERT_TRUE(assembly::ParseBasicBlock("MOV RAX, RBX").ok());  // tables
  dataset::GeneratorConfig config;
  config.lock_fraction = 0.2;  // exercise the prefix vector
  dataset::BlockGenerator generator(config, 31);
  Rng rng(32);
  std::uint64_t total = 0;
  std::uint64_t instructions = 0;
  for (int i = 0; i < 1000; ++i) {
    const assembly::BasicBlock block = generator.Generate();
    std::string text = block.ToString();
    // Half the blocks in lower case with tabs, as hand-written input is.
    if (rng.NextBounded(2) == 0) {
      for (char& c : text) {
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        if (c == ' ' && rng.NextBounded(2) == 0) c = '\t';
      }
    }
    const std::uint64_t before = Allocations();
    const assembly::ParseResult<assembly::BasicBlock> parsed =
        assembly::ParseBasicBlock(text);
    const std::uint64_t made = Allocations() - before;
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(*parsed.value, block);
    // 1 + N for N instructions with operands, plus one per prefixed one.
    EXPECT_EQ(made, OwnedAllocations(*parsed.value)) << text;
    total += made;
    instructions += block.size();
  }
  std::printf("ParseBasicBlock: %.2f allocations per block, %.2f per "
              "instruction\n",
              static_cast<double>(total) / 1000.0,
              static_cast<double>(total) / static_cast<double>(instructions));
}

TEST(ParseAllocationTest, ImportStaysWithinAPerRowBudget) {
  constexpr int kRows = 1000;
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string stem =
      "parse_alloc_test_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  const std::string csv_path = (dir / (stem + ".csv")).string();
  const std::string corpus_path = (dir / (stem + ".gbc")).string();

  dataset::GeneratorConfig config;
  dataset::BlockGenerator generator(config, 41);
  std::uint64_t owned = 0;
  {
    std::ofstream csv(csv_path, std::ios::trunc);
    csv << "block,throughput\n";
    for (int row = 0; row < kRows; ++row) {
      const assembly::BasicBlock block = generator.Generate();
      owned += OwnedAllocations(block);
      std::string text = block.ToString();
      for (char& c : text) {
        if (c == '\n') c = ';';
      }
      csv << '"' << text << "\"," << 20.0 + row << "\n";
    }
  }
  // Warm-up: the register table, the semantics catalog, stream locales.
  ASSERT_EQ(dataset::ImportBhiveCsv(csv_path, corpus_path).imported,
            static_cast<std::uint64_t>(kRows));

  const std::uint64_t before = Allocations();
  const dataset::ImportStats stats =
      dataset::ImportBhiveCsv(csv_path, corpus_path);
  const std::uint64_t made = Allocations() - before;
  std::filesystem::remove(csv_path);
  std::filesystem::remove(corpus_path);
  ASSERT_EQ(stats.imported, static_cast<std::uint64_t>(kRows));

  const double per_row = static_cast<double>(made) / kRows;
  const double parsed_per_row = static_cast<double>(owned) / kRows;
  std::printf("ImportBhiveCsv: %.2f allocations per row, of which the "
              "parsed blocks own %.2f\n",
              per_row, parsed_per_row);
  // Beyond the parsed blocks, a row may cost a quarter of an allocation:
  // the file streams, the corpus shard buffer's growth and the reused
  // CSV fields, all amortized over the rows.
  EXPECT_LE(per_row, parsed_per_row + 0.25);
}

/** The throughput oracle keeps its decode and simulation arrays in a
 * per-thread scratch. Once the scratch has grown to the longest block,
 * estimating (one microarchitecture or all three from one decode)
 * allocates nothing. */
TEST(OracleAllocationTest, WarmEstimatesAllocateNothing) {
  dataset::GeneratorConfig config;
  config.lock_fraction = 0.2;
  dataset::BlockGenerator generator(config, 51);
  const std::vector<assembly::BasicBlock> blocks = generator.GenerateMany(500);
  const uarch::ThroughputModel model(uarch::Microarchitecture::kSkylake);
  double sum = 0.0;
  for (const assembly::BasicBlock& block : blocks) {  // warm-up
    sum += uarch::EstimateOnAllUarchs(block)[0].cycles_per_iteration;
  }
  const std::uint64_t before = Allocations();
  for (const assembly::BasicBlock& block : blocks) {
    sum += model.CyclesPerIteration(block);
    sum += uarch::EstimateOnAllUarchs(block)[2].cycles_per_iteration;
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(OracleAllocationTest, WarmLabelsAndFingerprintsAllocateNothing) {
  dataset::GeneratorConfig config;
  config.lock_fraction = 0.2;
  dataset::BlockGenerator generator(config, 52);
  const std::vector<assembly::BasicBlock> blocks = generator.GenerateMany(500);
  constexpr uarch::MeasurementTool kTool = uarch::MeasurementTool::kBHiveTool;
  double sum = 0.0;
  std::uint64_t hash = 0;
  for (const assembly::BasicBlock& block : blocks) {  // warm-up
    sum += uarch::MeasureOnAllUarchs(block, kTool)[0];
    hash ^= uarch::BlockFingerprint(block);
  }
  const std::uint64_t before_labels = Allocations();
  for (const assembly::BasicBlock& block : blocks) {
    sum += uarch::MeasureOnAllUarchs(block, kTool)[1];
  }
  EXPECT_EQ(Allocations() - before_labels, 0u);
  const std::uint64_t before_fingerprints = Allocations();
  for (const assembly::BasicBlock& block : blocks) {
    hash ^= uarch::BlockFingerprint(block) * 3;
  }
  EXPECT_EQ(Allocations() - before_fingerprints, 0u);
  EXPECT_GT(sum, 0.0);
  EXPECT_NE(hash, 0u);
}

}  // namespace
}  // namespace granite
