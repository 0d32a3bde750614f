/**
 * @file
 * Corpus-file robustness suite: save/load round-trips must be bit-exact
 * (blocks and binary double labels), the chunked reader and the
 * random-access streaming source must agree with the saved dataset,
 * streaming synthesis must replay the materialized synthesis exactly,
 * and every class of malformed file (bad magic, truncation, flipped
 * payload or label bytes, inconsistent counts, trailing garbage) must
 * raise a clean CorpusError — never UB, never a partial dataset.
 */
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "asm/parser.h"
#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "gtest/gtest.h"
#include "temp_corpus.h"

namespace granite::dataset {
namespace {

class CorpusIoTest : public ::testing::Test {
 protected:
  CorpusIoTest() {
    path_ = (std::filesystem::temp_directory_path() /
             ("corpus_io_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".gbc"))
                .string();
  }

  ~CorpusIoTest() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  static Dataset TinyDataset(std::size_t num_blocks, uint64_t seed = 5) {
    SynthesisConfig config;
    config.num_blocks = num_blocks;
    config.seed = seed;
    config.generator.max_instructions = 6;
    return SynthesizeDataset(config);
  }

  std::vector<char> ReadFile() const {
    std::ifstream file(path_, std::ios::binary);
    EXPECT_TRUE(file.is_open());
    return std::vector<char>(std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::vector<char>& bytes) const {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /** Reads the current file to the end through the chunked reader. */
  void ReadEveryShard() const {
    CorpusReader reader(path_);
    std::vector<Sample> shard;
    while (reader.NextShard(&shard)) {
    }
  }

  /** Every read path must reject the current file. */
  void ExpectAllReadersThrow() const {
    EXPECT_THROW(ReadEveryShard(), CorpusError);
    EXPECT_THROW(StreamingCorpusSource{path_}, CorpusError);
  }

  static void ExpectSamplesEqual(const Sample& expected,
                                 const Sample& actual,
                                 const std::string& what) {
    EXPECT_EQ(expected.block.ToString(), actual.block.ToString()) << what;
    for (int label = 0; label < uarch::kNumMicroarchitectures; ++label) {
      EXPECT_EQ(expected.throughput[label], actual.throughput[label])
          << what << " label " << label;
    }
  }

  std::string path_;
};

TEST_F(CorpusIoTest, RoundTripIsBitExact) {
  const Dataset data = TinyDataset(120);
  SaveCorpus(data, path_, uarch::MeasurementTool::kIthemalTool,
             /*generator_seed=*/5, /*records_per_shard=*/32);
  const Dataset loaded = ReadStreamedCorpus(path_);
  ASSERT_EQ(loaded.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ExpectSamplesEqual(data[i], loaded[i], "sample " + std::to_string(i));
  }
}

TEST_F(CorpusIoTest, WriterStreamingAppendMatchesSaveCorpus) {
  const Dataset data = TinyDataset(50);
  SaveCorpus(data, path_, uarch::MeasurementTool::kBHiveTool, 5,
             /*records_per_shard=*/16);
  const std::vector<char> saved = ReadFile();

  CorpusWriter writer(path_, uarch::MeasurementTool::kBHiveTool, 5,
                      /*records_per_shard=*/16);
  for (const Sample& sample : data.samples()) writer.Append(sample);
  writer.Finish();
  EXPECT_EQ(writer.blocks_written(), data.size());
  EXPECT_EQ(ReadFile(), saved);
}

TEST_F(CorpusIoTest, HeaderReportsMetadata) {
  const Dataset data = TinyDataset(70);
  SaveCorpus(data, path_, uarch::MeasurementTool::kBHiveTool,
             /*generator_seed=*/41, /*records_per_shard=*/32);
  const CorpusHeader header = StreamingCorpusSource(path_).header();
  EXPECT_EQ(header.version, kCorpusFormatVersion);
  EXPECT_EQ(header.tool, uarch::MeasurementTool::kBHiveTool);
  EXPECT_EQ(header.num_labels,
            static_cast<std::uint32_t>(uarch::kNumMicroarchitectures));
  EXPECT_EQ(header.generator_seed, 41u);
  EXPECT_EQ(header.num_blocks, 70u);
  EXPECT_EQ(header.records_per_shard, 32u);
  EXPECT_EQ(header.num_shards, 3u);  // 32 + 32 + 6
}

TEST_F(CorpusIoTest, ChunkedReaderMatchesSavedDataset) {
  const Dataset data = TinyDataset(100);
  SaveCorpus(data, path_, uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/16);
  CorpusReader reader(path_);
  std::vector<Sample> shard;
  std::size_t total = 0;
  std::size_t shards = 0;
  while (reader.NextShard(&shard)) {
    ++shards;
    // The chunked reader never yields more than one shard at a time.
    ASSERT_LE(shard.size(), 16u);
    for (const Sample& sample : shard) {
      ExpectSamplesEqual(data[total], sample,
                         "sample " + std::to_string(total));
      ++total;
    }
  }
  EXPECT_EQ(shards, 7u);
  EXPECT_EQ(total, data.size());
  // The stream is exhausted and stays exhausted.
  EXPECT_FALSE(reader.NextShard(&shard));
}

TEST_F(CorpusIoTest, StreamingSourceMatchesMaterializedInAnyOrder) {
  const Dataset data = TinyDataset(90);
  SaveCorpus(data, path_, uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/16);
  StreamingCorpusOptions options;
  options.cache_shards = 1;  // force evictions on non-local access
  const StreamingCorpusSource source(path_, options);
  ASSERT_EQ(source.size(), data.size());

  // A stride pattern that jumps between shards on almost every access.
  for (std::size_t step = 0; step < data.size(); ++step) {
    const std::size_t i = (step * 37) % data.size();
    const SampleView view = source.Get(i);
    EXPECT_EQ(data[i].block.ToString(), view.block->ToString());
    for (int label = 0; label < uarch::kNumMicroarchitectures; ++label) {
      EXPECT_EQ(data[i].throughput[label], (*view.throughput)[label]);
    }
  }
  // With one cached shard and a shard-hopping pattern, shards were
  // reloaded many times — the source really is streaming, not caching
  // the whole file.
  EXPECT_GT(source.shard_loads(), source.header().num_shards);
}

// Opening decodes every shard once and keeps the last `cache_shards` of
// them, so a corpus that fits the window is never decoded again (the
// bias pass after `train --dataset-file` opens its corpus).
TEST_F(CorpusIoTest, OpenKeepsTheLastShardsItDecoded) {
  SaveCorpus(TinyDataset(20), path_, uarch::MeasurementTool::kIthemalTool,
             5, /*records_per_shard=*/8);
  StreamingCorpusOptions options;
  options.cache_shards = 3;
  const StreamingCorpusSource whole(path_, options);
  ASSERT_EQ(whole.header().num_shards, 3u);
  EXPECT_EQ(whole.shard_loads(), 3u);
  for (std::size_t i = 0; i < whole.size(); ++i) whole.Get(i);
  EXPECT_EQ(whole.shard_loads(), 3u);

  options.cache_shards = 1;
  const StreamingCorpusSource windowed(path_, options);
  EXPECT_EQ(windowed.shard_loads(), 3u);
  windowed.Get(0);  // shard 0 was evicted during the open pass
  EXPECT_EQ(windowed.shard_loads(), 4u);
}

// Open decoded every shard, so a shard that no longer reads back on a
// later Get means the file changed after open, whatever the damage.
TEST_F(CorpusIoTest, ShardDamagedAfterOpenReportsAChangedCorpus) {
  SaveCorpus(TinyDataset(20), path_, uarch::MeasurementTool::kIthemalTool,
             5, /*records_per_shard=*/8);
  const std::vector<char> saved = ReadFile();
  std::vector<char> bad_text = saved;
  bad_text[56 + 16 + 4] = '\x01';  // first letter of shard 0's first block
  for (const std::vector<char>& damaged :
       {bad_text, std::vector<char>(saved.begin(), saved.begin() + 60)}) {
    WriteFile(saved);
    StreamingCorpusOptions options;
    options.cache_shards = 1;  // shard 0 is evicted during the open pass
    const StreamingCorpusSource source(path_, options);
    WriteFile(damaged);
    try {
      source.Get(0);
      ADD_FAILURE() << "Get read a damaged shard";
    } catch (const CorpusError& error) {
      EXPECT_EQ(std::string(error.what()),
                "corpus changed while streaming: " + path_);
    }
  }
}

TEST_F(CorpusIoTest, ViewsPinTheirShardAcrossEviction) {
  const Dataset data = TinyDataset(64);
  SaveCorpus(data, path_, uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/8);
  StreamingCorpusOptions options;
  options.cache_shards = 1;
  const StreamingCorpusSource source(path_, options);

  const SampleView pinned = source.Get(3);
  const std::string expected = data[3].block.ToString();
  // Touch every other shard, evicting shard 0 from the cache repeatedly.
  for (std::size_t i = 0; i < source.size(); i += 8) source.Get(i + 1);
  // The pinned view must still be alive and intact (ASan would flag a
  // use-after-free here if pinning were broken).
  EXPECT_EQ(pinned.block->ToString(), expected);
}

TEST_F(CorpusIoTest, StreamingSynthesisMatchesMaterializedSynthesis) {
  SynthesisConfig config;
  config.num_blocks = 150;
  config.seed = 11;
  config.generator.max_instructions = 6;
  const Dataset materialized = SynthesizeDataset(config);

  StreamingSynthesisOptions options;
  options.records_per_shard = 32;
  options.cache_shards = 1;  // regeneration on almost every jump
  const StreamingSynthesisSource lazy(config, options);
  ASSERT_EQ(lazy.size(), materialized.size());
  for (std::size_t step = 0; step < lazy.size(); ++step) {
    const std::size_t i = (step * 53) % lazy.size();
    const SampleView view = lazy.Get(i);
    ExpectSamplesEqual(materialized[i],
                       Sample{*view.block, *view.throughput},
                       "sample " + std::to_string(i));
  }
}

// With a one-shard window, each shard is evicted as soon as SaveCorpus
// reads the next one, so Append must read only through the pinned view.
TEST_F(CorpusIoTest, StreamingSynthesisRoundTripsThroughFile) {
  SynthesisConfig config;
  config.num_blocks = 80;
  config.seed = 23;
  config.generator.max_instructions = 6;
  const Dataset direct = SynthesizeDataset(config);
  for (const std::size_t cache_shards : {2, 1}) {
    SCOPED_TRACE("cache_shards " + std::to_string(cache_shards));
    StreamingSynthesisOptions options;
    options.records_per_shard = 16;
    options.cache_shards = cache_shards;
    const StreamingSynthesisSource lazy(config, options);
    SaveCorpus(lazy, path_, config.tool, config.seed,
               /*records_per_shard=*/16);

    const Dataset loaded = ReadStreamedCorpus(path_);
    ASSERT_EQ(loaded.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ExpectSamplesEqual(direct[i], loaded[i],
                         "sample " + std::to_string(i));
    }
  }
}

TEST_F(CorpusIoTest, EmptyCorpusRoundTrips) {
  SaveCorpus(Dataset(), path_, uarch::MeasurementTool::kIthemalTool, 0);
  EXPECT_EQ(StreamingCorpusSource(path_).header().num_blocks, 0u);
  EXPECT_TRUE(ReadStreamedCorpus(path_).empty());
  EXPECT_NO_THROW(ReadEveryShard());
}

TEST_F(CorpusIoTest, FpImmediatesRoundTripExactly) {
  Sample sample;
  sample.block = *assembly::ParseBasicBlock(
                      "MOV RAX, 1.2345678\nMOV RBX, 0.30000000000000004")
                      .value;
  sample.throughput.fill(1.0);
  SaveCorpus(Dataset({sample}), path_, uarch::MeasurementTool::kIthemalTool,
             0);
  const Dataset loaded = ReadStreamedCorpus(path_);
  ASSERT_EQ(loaded.size(), 1u);
  const assembly::BasicBlock& block = loaded[0].block;
  EXPECT_EQ(block, sample.block);
  EXPECT_EQ(block.instructions[0].operands[1].fp_imm(), 1.2345678);
  EXPECT_EQ(block.instructions[1].operands[1].fp_imm(), 0.1 + 0.2);
}

TEST_F(CorpusIoTest, OversizedBlockTextIsRejectedAndNotWritten) {
  const Dataset data = TinyDataset(3);
  Sample oversized;
  const assembly::Instruction wide =
      *assembly::ParseInstruction("VADDPS YMM0, YMM1, YMMWORD PTR [RSI + 32]")
           .value;
  // 41 bytes + '\n' per instruction: past the 1 MiB record limit.
  oversized.block.instructions.assign(30000, wide);

  CorpusWriter writer(path_, uarch::MeasurementTool::kIthemalTool, 0,
                      /*records_per_shard=*/2);
  writer.Append(data[0]);
  EXPECT_THROW(writer.Append(oversized), CorpusError);
  writer.Append(data[1]);
  writer.Append(data[2]);
  writer.Finish();
  EXPECT_EQ(writer.blocks_written(), 3u);

  const Dataset loaded = ReadStreamedCorpus(path_);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    ExpectSamplesEqual(data[i], loaded[i], "sample " + std::to_string(i));
  }
}

TEST_F(CorpusIoTest, WrittenImmediateRecordIsRefusedAtOpen) {
  // `ADD 5, RAX` parses and its arity is modelled, but it writes an
  // immediate: the graph builder has no value node for that, so the
  // corpus does not open.
  {
    CorpusWriter writer(path_, uarch::MeasurementTool::kIthemalTool, 0);
    Sample sample;
    sample.block = *assembly::ParseBasicBlock("ADD 5, RAX").value;
    sample.throughput.fill(100.0);
    writer.Append(sample);
    writer.Finish();
  }
  try {
    StreamingCorpusSource source(path_);
    ADD_FAILURE() << "the corpus opened";
  } catch (const CorpusError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("unencodable block: ADD operand 0 is written but "
                        "is an immediate"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(CorpusIoTest, MissingFileRaisesCleanError) {
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, EmptyFileRaisesCleanError) {
  WriteFile({});
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, CorruptMagicRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  bytes[0] ^= 0x5a;
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, FutureFormatVersionRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, UnknownToolRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  const std::uint32_t tool = 200;
  std::memcpy(bytes.data() + 12, &tool, sizeof(tool));
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, LabelCountMismatchRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  const std::uint32_t labels = 5;
  std::memcpy(bytes.data() + 16, &labels, sizeof(labels));
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, InconsistentShardCountRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/8);
  std::vector<char> bytes = ReadFile();
  const std::uint64_t shards = 9;  // truth: ceil(20 / 8) = 3
  std::memcpy(bytes.data() + 48, &shards, sizeof(shards));
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, TruncationAnywhereRaisesCleanError) {
  SaveCorpus(TinyDataset(40), path_,
             uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/8);
  const std::vector<char> bytes = ReadFile();
  // Mid-header, mid-shard-prelude, mid-record, mid-checksum.
  for (const double fraction : {0.001, 0.01, 0.3, 0.7, 0.999}) {
    const std::size_t cut = static_cast<std::size_t>(
        static_cast<double>(bytes.size()) * fraction);
    WriteFile(std::vector<char>(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut)));
    SCOPED_TRACE("cut at " + std::to_string(cut));
    ExpectAllReadersThrow();
  }
}

TEST_F(CorpusIoTest, FlippedPayloadByteRaisesCleanError) {
  SaveCorpus(TinyDataset(30), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  // A byte inside the first record's block text: either the parse or
  // the checksum must reject it.
  bytes[56 + 16 + 4 + 1] ^= 0x40;
  WriteFile(bytes);
  EXPECT_THROW(ReadEveryShard(), CorpusError);
  EXPECT_THROW(StreamingCorpusSource{path_}, CorpusError);
}

TEST_F(CorpusIoTest, FlippedLabelByteRaisesChecksumError) {
  SaveCorpus(TinyDataset(30), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  // The last label byte of the last record parses fine — only the
  // whole-file checksum can catch it.
  bytes[bytes.size() - 9] ^= 0x01;
  WriteFile(bytes);
  EXPECT_THROW(ReadEveryShard(), CorpusError);
  EXPECT_THROW(StreamingCorpusSource{path_}, CorpusError);
}

TEST_F(CorpusIoTest, TrailingGarbageRaisesCleanError) {
  SaveCorpus(TinyDataset(20), path_,
             uarch::MeasurementTool::kIthemalTool, 5);
  std::vector<char> bytes = ReadFile();
  bytes.push_back('x');
  WriteFile(bytes);
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, UnfinishedWriterFileIsRejected) {
  const Dataset data = TinyDataset(20);
  {
    CorpusWriter writer(path_, uarch::MeasurementTool::kIthemalTool, 5,
                        /*records_per_shard=*/8);
    for (const Sample& sample : data.samples()) writer.Append(sample);
    // No Finish(): the header still holds placeholder counts and no
    // checksum trailer was written.
  }
  ExpectAllReadersThrow();
}

TEST_F(CorpusIoTest, WriterRejectsMisuse) {
  CorpusWriter writer(path_, uarch::MeasurementTool::kIthemalTool, 5);
  writer.Finish();
  EXPECT_THROW(writer.Finish(), CorpusError);
  EXPECT_THROW(writer.Append(Sample{}), CorpusError);
  EXPECT_THROW(
      CorpusWriter(path_, uarch::MeasurementTool::kIthemalTool, 5,
                   /*records_per_shard=*/0),
      CorpusError);
}

}  // namespace
}  // namespace granite::dataset
