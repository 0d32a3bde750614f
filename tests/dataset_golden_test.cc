/**
 * @file
 * Golden digests of the dataset layer: the exact samples synthesis
 * produces, and the exact outcome every corpus reader gives on damaged
 * files. Both fold into FNV-1a digests, so any change to a generated
 * block, a label bit, an accept/reject decision, or the wording of a
 * corpus error moves a digest.
 */
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "asm/parser.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "dataset/block_source.h"
#include "dataset/corpus_io.h"
#include "dataset/dataset.h"
#include "gtest/gtest.h"

namespace granite::dataset {
namespace {

std::uint64_t FoldSample(
    std::uint64_t digest, const assembly::BasicBlock& block,
    const std::array<double, uarch::kNumMicroarchitectures>& throughput) {
  digest = Fnv1a(digest, block.ToString());
  for (const double label : throughput) {
    char bits[sizeof(label)];
    std::memcpy(bits, &label, sizeof(label));
    digest = Fnv1a(digest, {bits, sizeof(bits)});
  }
  return Fnv1a(digest, std::string_view("\0", 1));
}

std::uint64_t FoldSource(std::uint64_t digest, const BlockSource& source) {
  for (std::size_t i = 0; i < source.size(); ++i) {
    const SampleView view = source.Get(i);
    digest = FoldSample(digest, *view.block, *view.throughput);
  }
  return digest;
}

/** Single-instruction dependency-chain blocks without immediates or
 * memory operands: the generator's raw output repeats, so dedup rejects
 * attempts. */
SynthesisConfig RepeatingConfig(std::uint64_t seed) {
  SynthesisConfig config;
  config.num_blocks = 120;
  config.seed = seed;
  config.generator.min_instructions = 1;
  config.generator.max_instructions = 1;
  config.generator.family_weights = {1.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  config.generator.immediate_fraction = 0.0;
  config.generator.memory_operand_fraction = 0.0;
  return config;
}

SynthesisConfig DefaultConfig(std::uint64_t seed) {
  SynthesisConfig config;
  config.num_blocks = 150;
  config.seed = seed;
  return config;
}

TEST(DatasetGoldenTest, RepeatingConfigMakesTheGeneratorRepeat) {
  for (const std::uint64_t seed : {7, 19}) {
    const SynthesisConfig config = RepeatingConfig(seed);
    BlockGenerator generator(config.generator, config.seed);
    std::unordered_set<std::uint64_t> seen;
    std::size_t attempts = 0;
    while (seen.size() < config.num_blocks) {
      ++attempts;
      seen.insert(uarch::BlockFingerprint(generator.Generate()));
    }
    EXPECT_GT(attempts, config.num_blocks + 20) << "seed " << seed;
  }
}

/** Synthesis for both measurement tools, two seeds, a default and a
 * repeat-prone config, plus relabeling each dataset with the other tool:
 * block text and label bits of every sample. */
TEST(DatasetGoldenTest, SynthesisDigest) {
  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t samples = 0;
  for (const uarch::MeasurementTool tool :
       {uarch::MeasurementTool::kIthemalTool,
        uarch::MeasurementTool::kBHiveTool}) {
    const uarch::MeasurementTool other =
        tool == uarch::MeasurementTool::kIthemalTool
            ? uarch::MeasurementTool::kBHiveTool
            : uarch::MeasurementTool::kIthemalTool;
    for (const std::uint64_t seed : {7, 19}) {
      for (SynthesisConfig config :
           {DefaultConfig(seed), RepeatingConfig(seed)}) {
        config.tool = tool;
        const Dataset dataset = SynthesizeDataset(config);
        ASSERT_EQ(dataset.size(), config.num_blocks);
        digest = FoldSource(digest, dataset);
        digest = FoldSource(digest, RelabelDataset(dataset, other));
        samples += 2 * dataset.size();
      }
    }
  }
  EXPECT_EQ(samples, 2160u);
  EXPECT_EQ(digest, 11466617682373209353ull);
}

/** Applies one seeded mutation of the kinds a damaged corpus file shows:
 * a bit flip, a truncation, inserted bytes or trailing bytes. */
void Mutate(std::vector<char>& bytes, Rng& rng) {
  const std::size_t position = rng.NextBounded(bytes.size() + 1);
  const auto random_bytes = [&] {
    std::vector<char> extra(1 + rng.NextBounded(8));
    for (char& byte : extra) byte = static_cast<char>(rng.NextBounded(256));
    return extra;
  };
  switch (rng.NextBounded(4)) {
    case 0:  // bit flip
      if (position < bytes.size()) {
        bytes[position] = static_cast<char>(
            bytes[position] ^ static_cast<char>(1u << rng.NextBounded(8)));
      }
      break;
    case 1:  // truncation
      bytes.resize(position);
      break;
    case 2: {  // inserted bytes
      const std::vector<char> extra = random_bytes();
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(position),
                   extra.begin(), extra.end());
      break;
    }
    default: {  // trailing bytes
      const std::vector<char> extra = random_bytes();
      bytes.insert(bytes.end(), extra.begin(), extra.end());
      break;
    }
  }
}

class CorpusFile {
 public:
  CorpusFile()
      : path_((std::filesystem::temp_directory_path() /
               ("dataset_golden_test_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                ".gbc"))
                  .string()) {}

  ~CorpusFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  CorpusFile(const CorpusFile&) = delete;
  CorpusFile& operator=(const CorpusFile&) = delete;

  const std::string& path() const { return path_; }

  std::vector<char> Read() const {
    std::ifstream file(path_, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>());
  }

  void Write(const std::vector<char>& bytes) const {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /** `message` with every occurrence of the path removed. */
  std::string StripPath(std::string message) const {
    for (std::size_t at = message.find(path_); at != std::string::npos;
         at = message.find(path_)) {
      message.erase(at, path_.size());
    }
    return message;
  }

 private:
  std::string path_;
};

/** Every record CorpusReader yields, shard by shard. */
std::uint64_t ReadWithCorpusReader(const std::string& path) {
  CorpusReader reader(path);
  std::uint64_t digest = kFnvOffsetBasis;
  std::vector<Sample> shard;
  while (reader.NextShard(&shard)) {
    for (const Sample& sample : shard) {
      digest = FoldSample(digest, sample.block, sample.throughput);
    }
  }
  return digest;
}

/** Every record of a StreamingCorpusSource, in index order. */
std::uint64_t ReadWithStreamingSource(const std::string& path) {
  const StreamingCorpusSource source(path);
  return FoldSource(kFnvOffsetBasis, source);
}

/** Every header field of an opened StreamingCorpusSource. */
std::uint64_t ReadHeaderFields(const std::string& path) {
  const CorpusHeader header = StreamingCorpusSource(path).header();
  std::string fields;
  for (const std::uint64_t field :
       {std::uint64_t{header.version}, static_cast<std::uint64_t>(header.tool),
        std::uint64_t{header.num_labels}, header.generator_seed,
        std::uint64_t{header.import_rejected_ppm}, header.num_blocks,
        header.records_per_shard, header.num_shards}) {
    fields += std::to_string(field) + ",";
  }
  return Fnv1a(kFnvOffsetBasis, fields);
}

/** The outcome of each reader on the current file: "ok " and a digest of
 * what it read, or "error " and the message without the path. Only
 * CorpusError is caught: any other exception fails the test. */
std::vector<std::string> ReadWithEveryReader(const CorpusFile& file) {
  using Read = std::uint64_t (*)(const std::string&);
  std::vector<std::string> outcomes;
  for (const Read read :
       {ReadWithCorpusReader, ReadWithStreamingSource, ReadHeaderFields}) {
    try {
      outcomes.push_back("ok " + std::to_string(read(file.path())));
    } catch (const CorpusError& error) {
      outcomes.push_back("error " + file.StripPath(error.what()));
    }
  }
  return outcomes;
}

/** Golden digest over the outcome of every reader on a three-shard corpus
 * and on 800 seeded mutations of it (one or two bit flips, truncations,
 * inserted bytes or trailing bytes each). A mutation that leaves a
 * record's text parseable but names no catalog mnemonic is refused as
 * unencodable; the readers check the checksum only after the last
 * shard, so they report that first. StreamingCorpusSource opens with
 * CorpusReader's pass, so the two give the same outcome on every input,
 * and only the unmutated corpus is accepted. */
TEST(DatasetGoldenTest, CorpusReadersDigest) {
  CorpusFile file;
  SynthesisConfig config;
  config.num_blocks = 20;
  config.seed = 5;
  config.generator.max_instructions = 4;
  SaveCorpus(SynthesizeDataset(config), file.path(),
             uarch::MeasurementTool::kIthemalTool, 5,
             /*records_per_shard=*/8);
  const std::vector<char> canonical = file.Read();

  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t unencodable = 0;
  std::size_t agreeing = 0;
  const auto read_input = [&](const std::vector<char>& bytes) {
    file.Write(bytes);
    ++inputs;
    const std::vector<std::string> outcomes = ReadWithEveryReader(file);
    agreeing += outcomes[0] == outcomes[1] ? 1 : 0;
    for (const std::string& outcome : outcomes) {
      accepted += outcome.starts_with("ok ") ? 1 : 0;
      if (outcome.starts_with("error corrupt corpus (unencodable block: ")) {
        ++unencodable;
      }
      digest = Fnv1a(digest, outcome);
      digest = Fnv1a(digest, std::string_view("\0", 1));
    }
  };
  read_input(canonical);
  for (const std::uint64_t seed : {3, 4}) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 400; ++iteration) {
      std::vector<char> bytes = canonical;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(2));
      for (int m = 0; m < mutations; ++m) Mutate(bytes, rng);
      read_input(bytes);
    }
  }
  EXPECT_EQ(inputs, 801u);
  EXPECT_EQ(agreeing, inputs);  // CorpusReader == StreamingCorpusSource
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(unencodable, 156u);
  EXPECT_EQ(digest, 17219173233205077240ull);
}

/** tests/data/unencodable_record.gbc: two records, `MOV RAX, RBX` and
 * then `ADD RAX`, which parses but has an operand count the catalog does
 * not model. CorpusWriter writes it byte for byte as checked in; every
 * reader refuses it with the same error, the header included: no
 * corpus opens unless every record decodes. */
TEST(DatasetGoldenTest, UnencodableRecordIsRefusedByEveryRecordReader) {
  std::ifstream checked_in(
      std::string(GRANITE_TEST_DATA_DIR) + "/unencodable_record.gbc",
      std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(checked_in)),
                                std::istreambuf_iterator<char>());
  CorpusFile file;
  {
    CorpusWriter writer(file.path(), uarch::MeasurementTool::kIthemalTool,
                        0);
    double label = 100.0;
    for (const char* text : {"MOV RAX, RBX", "ADD RAX"}) {
      Sample sample;
      sample.block = *assembly::ParseBasicBlock(text).value;
      sample.throughput = {label, label + 10.0, label + 20.0};
      writer.Append(sample);
      label += 100.0;
    }
    writer.Finish();
  }
  EXPECT_EQ(file.Read(), bytes);

  file.Write(bytes);
  const std::string refused =
      "corrupt corpus (unencodable block: ADD with 1 operands): ";
  const std::vector<std::string> outcomes = ReadWithEveryReader(file);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const std::string& outcome : outcomes) {
    EXPECT_EQ(outcome, "error " + refused);
  }
}

/** A one-shard corpus whose prelude claims a 48 MiB payload and whose
 * file ends 0 to 7 bytes after that prelude: there is no room for the
 * payload or the checksum trailer, so every reader refuses it before
 * reading or allocating the payload. */
TEST(DatasetGoldenTest, FileEndingJustAfterAShardPreludeIsTruncated) {
  CorpusFile file;
  SaveCorpus(Dataset(), file.path(), uarch::MeasurementTool::kIthemalTool,
             0, /*records_per_shard=*/64);
  std::vector<char> header = file.Read();
  header.resize(56);  // drop the checksum of the empty corpus
  const auto put = [&](std::size_t offset, std::uint64_t value) {
    std::memcpy(header.data() + offset, &value, sizeof(value));
  };
  put(32, 64);  // blocks
  put(48, 1);   // shards
  const std::uint64_t prelude[2] = {64, 48ull << 20};
  header.insert(header.end(), reinterpret_cast<const char*>(prelude),
                reinterpret_cast<const char*>(prelude) + sizeof(prelude));
  for (std::size_t tail = 0; tail < 8; ++tail) {
    std::vector<char> bytes = header;
    bytes.resize(bytes.size() + tail, 'x');
    file.Write(bytes);
    SCOPED_TRACE(std::to_string(tail) + " bytes after the prelude");
    for (const std::string& outcome : ReadWithEveryReader(file)) {
      EXPECT_EQ(outcome, "error truncated corpus (shard 0 prelude): ");
    }
  }
}

}  // namespace
}  // namespace granite::dataset
