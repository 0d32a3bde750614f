/**
 * @file
 * Tests of batch preparation and the asynchronous prefetch pipeline,
 * including streaming-vs-materialized source equivalence: the same
 * indices must yield byte-identical batch content whether the samples
 * come from memory or stream from a corpus file.
 */
#include <atomic>
#include <set>
#include <string>

#include "dataset/batch_pipeline.h"
#include "dataset/corpus_io.h"
#include "gtest/gtest.h"
#include "temp_corpus.h"

namespace granite::dataset {
namespace {

Dataset TinyDataset(std::size_t num_blocks, uint64_t seed = 11) {
  SynthesisConfig config;
  config.num_blocks = num_blocks;
  config.seed = seed;
  config.generator.max_instructions = 4;
  return SynthesizeDataset(config);
}

/** An EncodeFn stand-in that only records how it was called. */
EncodeFn CountingEncode(std::atomic<int>* calls) {
  return [calls](const std::vector<const assembly::BasicBlock*>& blocks) {
    ++*calls;
    graph::BatchedGraph graph;
    graph.num_graphs = static_cast<int>(blocks.size());
    return graph;
  };
}

TEST(PrepareBatchTest, ResolvesBlocksAndShards) {
  const Dataset data = TinyDataset(10);
  const PreparedBatch batch =
      PrepareBatch(data, {0, 3, 5, 7, 9}, /*num_shards=*/2, nullptr);
  ASSERT_EQ(batch.indices.size(), 5u);
  ASSERT_EQ(batch.blocks.size(), 5u);
  EXPECT_EQ(batch.blocks[1], &data[3].block);
  ASSERT_EQ(batch.shards.size(), 2u);
  EXPECT_EQ(batch.shards[0].begin, 0u);
  EXPECT_EQ(batch.shards[0].end, 3u);
  EXPECT_EQ(batch.shards[1].begin, 3u);
  EXPECT_EQ(batch.shards[1].end, 5u);
  EXPECT_FALSE(batch.shards[0].has_graph);
}

TEST(PrepareBatchTest, DropsEmptyShards) {
  const Dataset data = TinyDataset(10);
  const PreparedBatch batch =
      PrepareBatch(data, {1, 2}, /*num_shards=*/4, nullptr);
  // Only two non-empty shards exist for two samples.
  ASSERT_EQ(batch.shards.size(), 2u);
  EXPECT_EQ(batch.shards[0].end - batch.shards[0].begin, 1u);
  EXPECT_EQ(batch.shards[1].end - batch.shards[1].begin, 1u);
}

TEST(PrepareBatchTest, EncodesEachShard) {
  const Dataset data = TinyDataset(10);
  std::atomic<int> calls{0};
  const PreparedBatch batch =
      PrepareBatch(data, {0, 1, 2, 3}, /*num_shards=*/2,
                   CountingEncode(&calls));
  EXPECT_EQ(calls.load(), 2);
  ASSERT_EQ(batch.shards.size(), 2u);
  for (const auto& shard : batch.shards) {
    EXPECT_TRUE(shard.has_graph);
    EXPECT_EQ(shard.graph.num_graphs,
              static_cast<int>(shard.end - shard.begin));
  }
}

TEST(PrefetchingBatchPipelineTest, MatchesSynchronousSampler) {
  const Dataset data = TinyDataset(16);
  constexpr std::size_t kBatchSize = 4;
  constexpr uint64_t kSeed = 99;
  BatchSampler reference(data.size(), kBatchSize, kSeed);
  PrefetchingBatchPipeline pipeline(&data, kBatchSize, /*num_shards=*/2,
                                    kSeed, nullptr);
  // The pipeline must replay the exact batch sequence the trainer would
  // have sampled synchronously.
  for (int i = 0; i < 10; ++i) {
    const PreparedBatch batch = pipeline.Next();
    EXPECT_EQ(batch.indices, reference.NextBatch()) << "batch " << i;
    EXPECT_EQ(batch.blocks.size(), kBatchSize);
  }
}

TEST(PrefetchingBatchPipelineTest, IndicesAreInRange) {
  const Dataset data = TinyDataset(7);
  PrefetchingBatchPipeline pipeline(&data, 3, /*num_shards=*/1, 5, nullptr);
  for (int i = 0; i < 5; ++i) {
    for (const std::size_t index : pipeline.Next().indices) {
      EXPECT_LT(index, data.size());
    }
  }
}

TEST(PrefetchingBatchPipelineTest, EncodesInBackground) {
  const Dataset data = TinyDataset(8);
  std::atomic<int> calls{0};
  PrefetchingBatchPipeline pipeline(&data, 4, /*num_shards=*/2, 5,
                                    CountingEncode(&calls));
  const PreparedBatch batch = pipeline.Next();
  ASSERT_EQ(batch.shards.size(), 2u);
  EXPECT_TRUE(batch.shards[0].has_graph);
  EXPECT_GE(calls.load(), 2);
}

TEST(PrefetchingBatchPipelineTest, DestructionMidStreamDoesNotHang) {
  const Dataset data = TinyDataset(8);
  // Never calling Next() leaves the producer blocked on a full slot; the
  // destructor must still stop and join it.
  PrefetchingBatchPipeline pipeline(&data, 4, /*num_shards=*/1, 5, nullptr);
}

TEST(PrepareBatchTest, CarriesLabelsAndNeedsNoFurtherSourceAccess) {
  const Dataset data = TinyDataset(10);
  const PreparedBatch batch =
      PrepareBatch(data, {2, 7, 4}, /*num_shards=*/1, nullptr);
  ASSERT_EQ(batch.throughputs.size(), 3u);
  for (std::size_t i = 0; i < batch.indices.size(); ++i) {
    for (int label = 0; label < uarch::kNumMicroarchitectures; ++label) {
      EXPECT_EQ(batch.throughputs[i][label],
                data[batch.indices[i]].throughput[label]);
    }
  }
}

TEST(PrepareBatchTest, StreamingSourceMatchesMaterialized) {
  const Dataset data = TinyDataset(24);
  const TempCorpus corpus(data, /*records_per_shard=*/8,
                          "batch_pipeline_test");
  StreamingCorpusOptions options;
  options.cache_shards = 1;  // every cross-shard jump reloads
  const StreamingCorpusSource streaming(corpus.path(), options);

  const std::vector<std::size_t> indices = {0, 23, 9, 17, 3, 12};
  const PreparedBatch from_memory =
      PrepareBatch(data, indices, /*num_shards=*/2, nullptr);
  const PreparedBatch from_file =
      PrepareBatch(streaming, indices, /*num_shards=*/2, nullptr);

  EXPECT_EQ(from_memory.indices, from_file.indices);
  EXPECT_EQ(from_memory.throughputs, from_file.throughputs);
  ASSERT_EQ(from_memory.blocks.size(), from_file.blocks.size());
  for (std::size_t i = 0; i < from_memory.blocks.size(); ++i) {
    EXPECT_EQ(from_memory.blocks[i]->ToString(),
              from_file.blocks[i]->ToString());
  }
  // The streaming batch pins the shards its blocks live in.
  EXPECT_FALSE(from_file.pins.empty());
  EXPECT_TRUE(from_memory.pins.empty());
}

TEST(PrepareBatchTest, PinnedBlocksSurviveShardEviction) {
  const Dataset data = TinyDataset(32);
  const TempCorpus corpus(data, /*records_per_shard=*/8,
                          "batch_pipeline_test");
  StreamingCorpusOptions options;
  options.cache_shards = 1;
  const StreamingCorpusSource streaming(corpus.path(), options);

  const PreparedBatch batch = PrepareBatch(
      streaming, {0, 31, 8, 16}, /*num_shards=*/1, nullptr);
  // Cycle the single-shard cache through every shard; the batch's
  // blocks must stay valid because the batch pins their shards.
  for (std::size_t i = 0; i < streaming.size(); ++i) streaming.Get(i);
  for (std::size_t i = 0; i < batch.indices.size(); ++i) {
    EXPECT_EQ(batch.blocks[i]->ToString(),
              data[batch.indices[i]].block.ToString());
  }
}

TEST(PrefetchingBatchPipelineTest, StreamingSourceReplaysSamplerExactly) {
  const Dataset data = TinyDataset(20);
  const TempCorpus corpus(data, /*records_per_shard=*/4,
                          "batch_pipeline_test");
  const StreamingCorpusSource streaming(corpus.path());

  constexpr std::size_t kBatchSize = 6;
  constexpr uint64_t kSeed = 77;
  BatchSampler reference(streaming.size(), kBatchSize, kSeed);
  PrefetchingBatchPipeline pipeline(
      static_cast<const BlockSource*>(&streaming), kBatchSize,
      /*num_shards=*/2, kSeed, nullptr);
  for (int i = 0; i < 8; ++i) {
    const PreparedBatch batch = pipeline.Next();
    EXPECT_EQ(batch.indices, reference.NextBatch()) << "batch " << i;
  }
}

/** A source whose every Get throws, as a StreamingCorpusSource's does
 * when its file changes after open. */
class ChangedFileSource : public BlockSource {
 public:
  std::size_t size() const override { return 4; }
  SampleView Get(std::size_t) const override {
    throw CorpusError("corpus changed while streaming: changed.gbc");
  }
};

/** The producer's first Get throws. The error must reach Next() on the
 * consumer's thread, on every later call too, and the destructor must
 * still join the stopped producer. */
TEST(PrefetchingBatchPipelineTest, SourceErrorReachesNext) {
  const ChangedFileSource source;
  PrefetchingBatchPipeline pipeline(static_cast<const BlockSource*>(&source),
                                    /*batch_size=*/2, /*num_shards=*/1,
                                    /*seed=*/3, nullptr);
  for (int call = 0; call < 2; ++call) {
    try {
      pipeline.Next();
      ADD_FAILURE() << "Next() returned a batch of an unreadable source";
    } catch (const CorpusError& error) {
      EXPECT_NE(std::string(error.what()).find("corpus changed"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace granite::dataset
