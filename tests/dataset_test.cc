/**
 * @file
 * Tests of dataset synthesis, splits and batching.
 */
#include <algorithm>
#include <numeric>
#include <set>

#include "gtest/gtest.h"
#include "dataset/dataset.h"

namespace granite::dataset {
namespace {

SynthesisConfig SmallConfig(std::size_t num_blocks = 100) {
  SynthesisConfig config;
  config.num_blocks = num_blocks;
  return config;
}

TEST(SynthesizeDatasetTest, ProducesRequestedCount) {
  const Dataset dataset = SynthesizeDataset(SmallConfig());
  EXPECT_EQ(dataset.size(), 100u);
}

TEST(SynthesizeDatasetTest, AllSamplesHavePositiveLabels) {
  const Dataset dataset = SynthesizeDataset(SmallConfig());
  for (const Sample& sample : dataset.samples()) {
    for (const double throughput : sample.throughput) {
      // Cycles per 100 iterations: at least ~100 (1 cycle/iteration).
      EXPECT_GT(throughput, 50.0);
      EXPECT_LT(throughput, 1e7);
    }
  }
}

TEST(SynthesizeDatasetTest, BlocksAreUnique) {
  const Dataset dataset = SynthesizeDataset(SmallConfig(200));
  std::set<std::string> distinct;
  for (const Sample& sample : dataset.samples()) {
    distinct.insert(sample.block.ToString());
  }
  EXPECT_EQ(distinct.size(), dataset.size());
}

TEST(SynthesizeDatasetTest, DeterministicFromSeed) {
  const Dataset a = SynthesizeDataset(SmallConfig());
  const Dataset b = SynthesizeDataset(SmallConfig());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block.ToString(), b[i].block.ToString());
    EXPECT_EQ(a[i].throughput, b[i].throughput);
  }
}

TEST(SynthesizeDatasetTest, UarchLabelsDiffer) {
  const Dataset dataset = SynthesizeDataset(SmallConfig());
  int differing = 0;
  for (const Sample& sample : dataset.samples()) {
    if (sample.throughput[0] != sample.throughput[2]) ++differing;
  }
  // Most blocks time differently on Ivy Bridge vs Skylake.
  EXPECT_GT(differing, 50);
}

TEST(SplitTest, FractionsRespected) {
  const IndexSplit split = SplitIndices(200, 0.83, 1);
  EXPECT_EQ(split.first.size(), 166u);
  EXPECT_EQ(split.second.size(), 34u);
}

TEST(SplitTest, DeterministicAndDisjoint) {
  const IndexSplit a = SplitIndices(100, 0.8, 7);
  const IndexSplit b = SplitIndices(100, 0.8, 7);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // Disjoint and exhaustive: every index of [0, 100) lands in exactly
  // one part.
  std::vector<std::size_t> all = a.first;
  all.insert(all.end(), a.second.begin(), a.second.end());
  std::sort(all.begin(), all.end());
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
}

TEST(SplitTest, DifferentSeedsShuffleDifferently) {
  const IndexSplit a = SplitIndices(100, 0.5, 1);
  const IndexSplit b = SplitIndices(100, 0.5, 2);
  const std::set<std::size_t> a_first(a.first.begin(), a.first.end());
  int common = 0;
  for (const std::size_t index : b.first) common += a_first.count(index);
  EXPECT_LT(common, 40);  // ~25 expected by chance out of 50.
}

TEST(RelabelDatasetTest, KeepsBlocksChangesLabels) {
  SynthesisConfig config = SmallConfig(50);
  config.tool = uarch::MeasurementTool::kIthemalTool;
  const Dataset ithemal_style = SynthesizeDataset(config);
  const Dataset bhive_style =
      RelabelDataset(ithemal_style, uarch::MeasurementTool::kBHiveTool);
  ASSERT_EQ(ithemal_style.size(), bhive_style.size());
  int label_changed = 0;
  for (std::size_t i = 0; i < ithemal_style.size(); ++i) {
    EXPECT_EQ(ithemal_style[i].block.ToString(),
              bhive_style[i].block.ToString());
    if (ithemal_style[i].throughput[0] != bhive_style[i].throughput[0]) {
      ++label_changed;
    }
  }
  EXPECT_EQ(label_changed, 50);
}

TEST(ThroughputsTest, ColumnMatchesSamples) {
  const Dataset dataset = SynthesizeDataset(SmallConfig(30));
  const std::vector<double> column =
      dataset.Throughputs(uarch::Microarchitecture::kHaswell);
  ASSERT_EQ(column.size(), 30u);
  for (std::size_t i = 0; i < column.size(); ++i) {
    EXPECT_EQ(column[i], dataset[i].throughput[1]);
  }
}

TEST(ThroughputsTest, ColumnThroughBlockSourceMatchesSamples) {
  // Dataset inherits Throughputs from BlockSource: the column read
  // through the base-class reference walks Get() over the samples.
  const Dataset dataset = SynthesizeDataset(SmallConfig(30));
  const BlockSource& source = dataset;
  EXPECT_FALSE(source.empty());
  const std::vector<double> column =
      source.Throughputs(uarch::Microarchitecture::kSkylake);
  ASSERT_EQ(column.size(), 30u);
  for (std::size_t i = 0; i < column.size(); ++i) {
    EXPECT_EQ(column[i], dataset[i].throughput[2]);
  }
  EXPECT_TRUE(Dataset().Throughputs(uarch::Microarchitecture::kSkylake)
                  .empty());
}

TEST(DatasetGetTest, ViewsPointIntoSamplesUnpinned) {
  const Dataset dataset = SynthesizeDataset(SmallConfig(10));
  const BlockSource& source = dataset;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const SampleView view = source.Get(i);
    EXPECT_EQ(view.block, &dataset[i].block);
    EXPECT_EQ(view.throughput, &dataset[i].throughput);
    EXPECT_EQ(view.pin, nullptr);
  }
}

TEST(DatasetGetDeathTest, OutOfRangeIndexAborts) {
  const Dataset dataset = SynthesizeDataset(SmallConfig(10));
  EXPECT_DEATH(dataset.Get(10), "Check failed");
  EXPECT_DEATH(Dataset().Get(0), "Check failed");
}

TEST(BlocksTest, PointersMatchSamples) {
  const Dataset dataset = SynthesizeDataset(SmallConfig(10));
  const auto blocks = dataset.Blocks();
  ASSERT_EQ(blocks.size(), 10u);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i], &dataset[i].block);
  }
}

TEST(BatchSamplerTest, CoversEpochWithoutRepeats) {
  BatchSampler sampler(10, 5, 3);
  std::set<std::size_t> seen;
  for (int batch = 0; batch < 2; ++batch) {
    for (const std::size_t index : sampler.NextBatch()) {
      EXPECT_TRUE(seen.insert(index).second)
          << "repeat within one epoch: " << index;
    }
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(BatchSamplerTest, WrapsIntoNextEpoch) {
  BatchSampler sampler(3, 2, 5);
  // 2 batches of 2 cover 4 draws from a 3-element dataset: one element
  // appears twice but every index stays in range.
  for (int batch = 0; batch < 2; ++batch) {
    for (const std::size_t index : sampler.NextBatch()) {
      EXPECT_LT(index, 3u);
    }
  }
}

TEST(BatchSamplerTest, DeterministicFromSeed) {
  BatchSampler a(20, 7, 11);
  BatchSampler b(20, 7, 11);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.NextBatch(), b.NextBatch());
}

}  // namespace
}  // namespace granite::dataset
