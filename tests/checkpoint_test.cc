/**
 * @file
 * Checkpoint-bundle robustness suite: save/load round-trips must be
 * bit-exact for every model kind under both kernel backends, and every
 * class of malformed file (bad magic, truncation, unknown kind, future
 * version, flipped payload bytes, trailing garbage) must raise a clean
 * CheckpointError — never UB, never a partial model. A golden digest
 * pins LoadModel's outcome on seeded byte mutations of whole bundles.
 */
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "ml/kernels/kernel_backend.h"
#include "model/checkpoint.h"
#include "model/config_io.h"

namespace granite::model {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() {
    dataset::BlockGenerator generator(dataset::GeneratorConfig(), 77);
    blocks_storage_ = generator.GenerateMany(10);
    for (const assembly::BasicBlock& block : blocks_storage_) {
      blocks_.push_back(&block);
    }
    path_ = (std::filesystem::temp_directory_path() /
             ("checkpoint_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".gmb"))
                .string();
  }

  ~CheckpointTest() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  static std::unique_ptr<core::GraniteModel> MakeGranite(int num_tasks) {
    core::GraniteConfig config =
        core::GraniteConfig().WithEmbeddingSize(8);
    config.message_passing_iterations = 2;
    config.num_tasks = num_tasks;
    config.decoder_output_bias_init = 0.75f;
    config.seed = 1234;
    return std::make_unique<core::GraniteModel>(
        std::make_unique<graph::Vocabulary>(
            graph::Vocabulary::CreateDefault()),
        config);
  }

  static std::unique_ptr<ithemal::IthemalModel> MakeIthemalPlus(
      int num_tasks) {
    ithemal::IthemalConfig config =
        ithemal::IthemalConfig().WithEmbeddingSize(8);
    config.decoder = ithemal::DecoderKind::kMlp;
    config.num_tasks = num_tasks;
    config.seed = 99;
    return std::make_unique<ithemal::IthemalModel>(
        std::make_unique<graph::Vocabulary>(
            ithemal::CreateIthemalVocabulary()),
        config);
  }

  /** Reads the bundle file into memory. */
  std::vector<char> ReadBundle() const {
    std::ifstream file(path_, std::ios::binary);
    EXPECT_TRUE(file.is_open());
    return std::vector<char>(std::istreambuf_iterator<char>(file),
                             std::istreambuf_iterator<char>());
  }

  /** Overwrites the bundle file with `bytes`. */
  void WriteBundle(const std::vector<char>& bytes) const {
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /** `config` with the value of its `key=` line replaced by `value`. */
  static std::string ReplaceConfigValue(const std::string& config,
                                        const std::string& key,
                                        const std::string& value) {
    // Index i of "\n" + config is index i - 1 of config, so a match
    // there starts the key's line at index i of config.
    const std::size_t start = ("\n" + config).find("\n" + key + "=");
    EXPECT_NE(start, std::string::npos) << key;
    const std::size_t end = config.find('\n', start);
    return config.substr(0, start) + key + "=" + value + config.substr(end);
  }

  /**
   * `bundle` with its config string replaced by `config` and its
   * checksum trailer recomputed, so the result is a well-formed bundle
   * whose only change is the config text.
   */
  static std::vector<char> WithConfigText(const std::vector<char>& bundle,
                                          const std::string& config) {
    const auto read_u64 = [&](std::size_t offset) {
      std::uint64_t value;
      std::memcpy(&value, bundle.data() + offset, sizeof(value));
      return value;
    };
    // magic, u32 version, then the length-prefixed kind and config.
    const std::size_t kind_at = kBundleMagic.size() + sizeof(std::uint32_t);
    const std::size_t config_at = kind_at + 8 + read_u64(kind_at);
    const std::size_t rest_at = config_at + 8 + read_u64(config_at);
    std::vector<char> result(bundle.begin(),
                             bundle.begin() + static_cast<long>(config_at));
    const std::uint64_t size = config.size();
    result.insert(result.end(), reinterpret_cast<const char*>(&size),
                  reinterpret_cast<const char*>(&size) + sizeof(size));
    result.insert(result.end(), config.begin(), config.end());
    result.insert(result.end(), bundle.begin() + static_cast<long>(rest_at),
                  bundle.end() - 8);
    const std::uint64_t checksum =
        Fnv1a(kFnvOffsetBasis, {result.data(), result.size()});
    result.insert(result.end(), reinterpret_cast<const char*>(&checksum),
                  reinterpret_cast<const char*>(&checksum) + sizeof(checksum));
    return result;
  }

  /**
   * Asserts a bit-exact all-task round-trip through SaveModel/LoadModel
   * under both kernel backends. Models resolve their backend at
   * construction, so `make` builds a fresh original inside each backend
   * environment.
   */
  void ExpectBitExactRoundTrip(
      const std::function<std::unique_ptr<ThroughputPredictor>()>& make) {
    for (const ml::KernelBackendKind backend :
         {ml::KernelBackendKind::kOptimized,
          ml::KernelBackendKind::kReference}) {
      SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
      ml::SetDefaultKernelBackend(&ml::GetKernelBackend(backend));
      const std::unique_ptr<ThroughputPredictor> original = make();
      SaveModel(*original, path_);
      const std::unique_ptr<ThroughputPredictor> reloaded = LoadModel(path_);
      ASSERT_NE(reloaded, nullptr);
      EXPECT_EQ(reloaded->kind(), original->kind());
      EXPECT_EQ(reloaded->num_tasks(), original->num_tasks());
      EXPECT_EQ(reloaded->DescribeConfig(), original->DescribeConfig());
      EXPECT_EQ(reloaded->vocabulary().tokens(),
                original->vocabulary().tokens());
      const auto& want = original->parameters().parameters();
      const auto& got = reloaded->parameters().parameters();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i]->name, want[i]->name);
        EXPECT_EQ(got[i]->value.rows(), want[i]->value.rows());
        EXPECT_EQ(got[i]->value.cols(), want[i]->value.cols());
      }
      const auto expected = original->PredictBatchAllTasks(blocks_);
      const auto actual = reloaded->PredictBatchAllTasks(blocks_);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i].size(), expected[i].size());
        for (std::size_t t = 0; t < expected[i].size(); ++t) {
          EXPECT_EQ(actual[i][t], expected[i][t])
              << "block " << i << " task " << t;
        }
      }
      ml::SetDefaultKernelBackend(nullptr);
    }
  }

  std::vector<assembly::BasicBlock> blocks_storage_;
  std::vector<const assembly::BasicBlock*> blocks_;
  std::string path_;
};

TEST_F(CheckpointTest, GraniteRoundTripIsBitExact) {
  ExpectBitExactRoundTrip([] { return MakeGranite(/*num_tasks=*/3); });
}

TEST_F(CheckpointTest, IthemalPlusRoundTripIsBitExact) {
  ExpectBitExactRoundTrip([] { return MakeIthemalPlus(/*num_tasks=*/2); });
}

TEST_F(CheckpointTest, VanillaIthemalRoundTripIsBitExact) {
  ExpectBitExactRoundTrip([] {
    ithemal::IthemalConfig config =
        ithemal::IthemalConfig().WithEmbeddingSize(8);
    config.decoder = ithemal::DecoderKind::kDotProduct;
    return std::make_unique<ithemal::IthemalModel>(
        std::make_unique<graph::Vocabulary>(
            ithemal::CreateIthemalVocabulary()),
        config);
  });
}

TEST_F(CheckpointTest, LoadedModelIsServableAndCacheable) {
  // The reconstructed model owns its vocabulary and supports the full
  // batched/cached serving path without any caller-side setup.
  SaveModel(*MakeGranite(1), path_);
  const std::unique_ptr<ThroughputPredictor> loaded = LoadModel(path_);
  loaded->EnablePredictionCache(64);
  const auto first = loaded->PredictBatchAllTasks(blocks_);
  const auto second = loaded->PredictBatchAllTasks(blocks_);
  EXPECT_EQ(first, second);
  EXPECT_GT(loaded->prediction_cache_hits(), 0u);
}

TEST_F(CheckpointTest, ReloadAfterTrainingStylePerturbation) {
  // Values written after construction (as training would) survive the
  // round trip: the bundle stores values, not the init recipe.
  ExpectBitExactRoundTrip([] {
    auto original = MakeGranite(1);
    for (const auto& parameter : original->parameters().parameters()) {
      float* data = parameter->value.data();
      for (std::size_t i = 0; i < parameter->value.size(); ++i) {
        data[i] += 0.001f * static_cast<float>(i % 7);
      }
    }
    original->parameters().BumpGeneration();
    return original;
  });
}

TEST_F(CheckpointTest, CorruptMagicRaisesCleanError) {
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  bytes[0] ^= 0x5a;
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, TruncatedFileRaisesCleanError) {
  SaveModel(*MakeGranite(1), path_);
  const std::vector<char> bytes = ReadBundle();
  // Truncation at any prefix must fail cleanly; probe a spread of cut
  // points including mid-header, mid-vocabulary and mid-tensor.
  for (const double fraction : {0.001, 0.01, 0.3, 0.7, 0.999}) {
    const std::size_t cut =
        static_cast<std::size_t>(static_cast<double>(bytes.size()) *
                                 fraction);
    WriteBundle(std::vector<char>(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut)));
    EXPECT_THROW(LoadModel(path_), CheckpointError) << "cut at " << cut;
  }
}

TEST_F(CheckpointTest, UnknownModelKindRaisesCleanError) {
  // A structurally valid header claiming a model kind this build does
  // not know (e.g. a bundle from a newer build with more families).
  std::ofstream file(path_, std::ios::binary | std::ios::trunc);
  file.write(kBundleMagic.data(), kBundleMagic.size());
  const std::uint32_t version = kBundleFormatVersion;
  file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::string kind = "alien_model";
  const std::uint64_t kind_size = kind.size();
  file.write(reinterpret_cast<const char*>(&kind_size), sizeof(kind_size));
  file.write(kind.data(), static_cast<std::streamsize>(kind.size()));
  file.close();
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, FutureFormatVersionRaisesCleanError) {
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  // The u32 version sits directly after the 8-byte magic.
  const std::uint32_t future = kBundleFormatVersion + 1;
  std::memcpy(bytes.data() + kBundleMagic.size(), &future, sizeof(future));
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, FlippedPayloadByteRaisesChecksumError) {
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  // Flip one byte inside the last parameter tensor (well before the
  // trailing 8-byte checksum, after all headers).
  bytes[bytes.size() - 16] ^= 0x01;
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, NonFiniteConfigFloatIsABadConfigNamingTheKey) {
  // The config is parsed before the trailing checksum is read, so an
  // edited bias init reaches the float parser, which must refuse it by
  // name rather than build a model that predicts NaN.
  for (const std::string spelling : {"-nan", "-inf"}) {
    SaveModel(*MakeGranite(1), path_);
    std::vector<char> bytes = ReadBundle();
    const std::string needle = "decoder_output_bias_init=0.75";
    const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                                needle.end());
    ASSERT_NE(it, bytes.end());
    std::copy(spelling.begin(), spelling.end(),
              it + static_cast<std::ptrdiff_t>(needle.size() - 4));
    WriteBundle(bytes);
    try {
      LoadModel(path_);
      ADD_FAILURE() << spelling << " loaded";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find("decoder_output_bias_init"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(CheckpointTest, FlippedVocabularyByteRaisesChecksumError) {
  // The checksum covers the whole stream, not just tensors: corrupting
  // a vocabulary token (lengths intact) must not load a model that
  // silently tokenizes against the wrong vocabulary.
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  const std::string needle = "_IMMEDIATE_";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *it ^= 0x04;
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, CorruptVocabularyRaisesCleanErrorNotAbort) {
  // The vocabulary is built before the trailing checksum is read, so a
  // flipped token that drops the unknown token or duplicates another
  // must fail as a CheckpointError, not abort in the Vocabulary
  // constructor.
  SaveModel(*MakeGranite(1), path_);
  const std::vector<char> bytes = ReadBundle();
  for (const auto& [needle, replacement] :
       {std::pair<std::string, std::string>{"_UNKNOWN_", "_UNKNOWX_"},
        std::pair<std::string, std::string>{"REPZ", "REPE"}}) {
    std::vector<char> mutated = bytes;
    const auto it = std::search(mutated.begin(), mutated.end(),
                                needle.begin(), needle.end());
    ASSERT_NE(it, mutated.end()) << needle;
    std::copy(replacement.begin(), replacement.end(), it);
    WriteBundle(mutated);
    EXPECT_THROW(LoadModel(path_), CheckpointError) << replacement;
  }
}

TEST_F(CheckpointTest, AbsurdConfigValueRaisesCleanErrorNotAbort) {
  // A parseable-but-insane config (e.g. a flipped digit) must fail as a
  // CheckpointError before reaching the model constructors' checked
  // aborts or any huge allocation. Patch same-length digits so the
  // binary layout stays valid and only config content changes.
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  const std::string needle = "message_passing_iterations=2";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  *(it + static_cast<long>(needle.size()) - 1) = '0';
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);

  // Every bounded key, one step outside its range on either side, in an
  // otherwise valid bundle (config length and checksum rewritten), so
  // only the range check can reject it. A layer list is bounded in its
  // widths, [1, 65536], and in its length, at most 64 entries.
  const std::string too_long_list =
      "8" + [] {
        std::string rest;
        for (int i = 0; i < 64; ++i) rest += ",8";
        return rest;
      }();
  const std::vector<std::pair<std::string, std::string>> granite_cases = {
      {"node_embedding_size", "0"},
      {"node_embedding_size", "65537"},
      {"edge_embedding_size", "0"},
      {"edge_embedding_size", "65537"},
      {"global_embedding_size", "0"},
      {"global_embedding_size", "65537"},
      {"message_passing_iterations", "0"},
      {"message_passing_iterations", "1025"},
      {"num_tasks", "0"},
      {"num_tasks", "1025"},
  };
  const std::vector<std::string> granite_lists = {
      "node_update_layers", "edge_update_layers", "global_update_layers",
      "decoder_layers"};
  const std::vector<std::pair<std::string, std::string>> ithemal_cases = {
      {"embedding_size", "0"}, {"embedding_size", "65537"},
      {"hidden_size", "0"},    {"hidden_size", "65537"},
      {"num_tasks", "0"},      {"num_tasks", "1025"},
  };
  const auto expect_rejected = [&](const ThroughputPredictor& model,
                                   const std::string& key,
                                   const std::string& value) {
    SCOPED_TRACE(std::string(ModelKindName(model.kind())) + " " + key +
                 "=" + value.substr(0, 16));
    SaveModel(model, path_);
    WriteBundle(WithConfigText(
        ReadBundle(), ReplaceConfigValue(model.DescribeConfig(), key, value)));
    try {
      LoadModel(path_);
      ADD_FAILURE() << "loaded";
    } catch (const CheckpointError& error) {
      EXPECT_NE(std::string(error.what()).find(key + " = "),
                std::string::npos)
          << error.what();
    }
  };
  const std::unique_ptr<core::GraniteModel> granite = MakeGranite(1);
  for (const auto& [key, value] : granite_cases) {
    expect_rejected(*granite, key, value);
  }
  for (const std::string& key : granite_lists) {
    for (const std::string& value : {std::string("8,0"),
                                     std::string("8,65537"), too_long_list}) {
      expect_rejected(*granite, key, value);
    }
  }
  const std::unique_ptr<ithemal::IthemalModel> ithemal = MakeIthemalPlus(1);
  for (const auto& [key, value] : ithemal_cases) {
    expect_rejected(*ithemal, key, value);
  }
  for (const std::string& value :
       {std::string("8,0"), std::string("8,65537"), too_long_list}) {
    expect_rejected(*ithemal, "decoder_layers", value);
  }

  // Both in-range edges of a key no parameter shape depends on load, so
  // the rewritten bundles above fail only on the range check.
  for (const std::string value : {"1", "1024"}) {
    SaveModel(*granite, path_);
    WriteBundle(WithConfigText(
        ReadBundle(), ReplaceConfigValue(granite->DescribeConfig(),
                                         "message_passing_iterations",
                                         value)));
    EXPECT_NO_THROW(LoadModel(path_)) << value;
  }
}

TEST_F(CheckpointTest, TrailingGarbageRaisesCleanError) {
  SaveModel(*MakeGranite(1), path_);
  std::vector<char> bytes = ReadBundle();
  bytes.push_back('x');
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

TEST_F(CheckpointTest, MissingFileRaisesCleanError) {
  EXPECT_THROW(LoadModel(path_ + ".does_not_exist"), CheckpointError);
}

TEST_F(CheckpointTest, WrongKindConfigTextRaisesCleanError) {
  // Claim kind "ithemal" over a GRANITE config body whose decoder value
  // is garbage for Ithemal's parser.
  SaveModel(*MakeIthemalPlus(1), path_);
  std::vector<char> bytes = ReadBundle();
  const std::string needle = "decoder=mlp";
  const auto it = std::search(bytes.begin(), bytes.end(), needle.begin(),
                              needle.end());
  ASSERT_NE(it, bytes.end());
  std::copy_n("decoder=xyz", needle.size(), it);
  WriteBundle(bytes);
  EXPECT_THROW(LoadModel(path_), CheckpointError);
}

/** Applies one seeded mutation of the kinds a damaged bundle shows: a
 * bit flip, a byte set to a random value, a truncation or inserted
 * bytes. Four in five land in the first 8 KB — magic, kind, config and
 * vocabulary — where a change meets a format check before the checksum;
 * the rest land anywhere, the tensor values included. */
void MutateBundle(std::vector<char>& bytes, Rng& rng) {
  const std::size_t reach =
      rng.NextBounded(5) < 4 ? std::min<std::size_t>(bytes.size(), 8192)
                             : bytes.size();
  const std::size_t position = rng.NextBounded(reach + 1);
  switch (rng.NextBounded(4)) {
    case 0:  // bit flip
      if (position < bytes.size()) {
        bytes[position] = static_cast<char>(
            bytes[position] ^ static_cast<char>(1u << rng.NextBounded(8)));
      }
      break;
    case 1:  // byte set
      if (position < bytes.size()) {
        bytes[position] = static_cast<char>(rng.NextBounded(256));
      }
      break;
    case 2:  // truncation
      bytes.resize(position);
      break;
    default: {  // inserted bytes
      std::vector<char> extra(1 + rng.NextBounded(8));
      for (char& byte : extra) byte = static_cast<char>(rng.NextBounded(256));
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(position),
                   extra.begin(), extra.end());
      break;
    }
  }
}

/** Golden digest over LoadModel's outcome ("ok", or the CheckpointError
 * message with the path taken out) on a GRANITE and an Ithemal+ bundle
 * and on 600 seeded mutations of them (one or two each). Every damaged
 * bundle is refused with a CheckpointError — never an abort, never a
 * partial model — and only an unmutated one loads. */
TEST_F(CheckpointTest, BundleMutationDigest) {
  const auto outcome_of = [&]() -> std::string {
    try {
      LoadModel(path_);
      return "ok";
    } catch (const CheckpointError& error) {
      std::string message = error.what();
      for (std::size_t at = message.find(path_); at != std::string::npos;
           at = message.find(path_)) {
        message.replace(at, path_.size(), "<path>");
      }
      return "error " + message;
    }
  };
  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::size_t checksum_mismatches = 0;
  const std::unique_ptr<ThroughputPredictor> models[] = {MakeGranite(2),
                                                         MakeIthemalPlus(2)};
  for (const std::unique_ptr<ThroughputPredictor>& model : models) {
    SaveModel(*model, path_);
    const std::vector<char> canonical = ReadBundle();
    const auto load_input = [&](const std::vector<char>& bytes) {
      WriteBundle(bytes);
      ++inputs;
      const std::string outcome = outcome_of();
      if (outcome == "ok") {
        ++accepted;
        EXPECT_EQ(bytes, canonical) << "a mutated bundle loaded";
      }
      if (outcome.find("(checksum mismatch)") != std::string::npos) {
        ++checksum_mismatches;
      }
      digest = Fnv1a(digest, outcome);
      digest = Fnv1a(digest, std::string_view("\0", 1));
    };
    load_input(canonical);
    Rng rng(11);
    for (int iteration = 0; iteration < 300; ++iteration) {
      std::vector<char> bytes = canonical;
      const int mutations = 1 + static_cast<int>(rng.NextBounded(2));
      for (int m = 0; m < mutations; ++m) MutateBundle(bytes, rng);
      load_input(bytes);
    }
  }
  EXPECT_EQ(inputs, 602u);
  EXPECT_EQ(accepted, 2u);  // the two unmutated bundles
  EXPECT_EQ(checksum_mismatches, 81u);
  EXPECT_EQ(digest, 8424395672554173639ull);
}

TEST(ConfigSerializationTest, GraniteConfigRoundTrips) {
  core::GraniteConfig config;
  config.node_embedding_size = 24;
  config.decoder_layers = {48, 24};
  config.message_passing_iterations = 5;
  config.use_residual = false;
  config.num_tasks = 3;
  config.decoder_output_bias_init = 1.625f;
  config.seed = 777;
  const core::GraniteConfig parsed =
      ParseFields<core::GraniteConfig>(SerializeFields(config));
  EXPECT_EQ(SerializeFields(parsed), SerializeFields(config));
}

TEST(ConfigSerializationTest, IthemalConfigRoundTrips) {
  ithemal::IthemalConfig config;
  config.embedding_size = 12;
  config.decoder = ithemal::DecoderKind::kMlp;
  config.decoder_layers = {12};
  config.decoder_layer_norm = false;
  config.num_tasks = 2;
  config.seed = 5;
  const ithemal::IthemalConfig parsed =
      ParseFields<ithemal::IthemalConfig>(SerializeFields(config));
  EXPECT_EQ(SerializeFields(parsed),
            SerializeFields(config));
}

// Literal SerializeFields text: bundles store it, so key order, key
// spelling and value formatting are part of the bundle format.
TEST(ConfigSerializationTest, DefaultGraniteConfigText) {
  EXPECT_EQ(SerializeFields(core::GraniteConfig()),
            "node_embedding_size=256\n"
            "edge_embedding_size=256\n"
            "global_embedding_size=256\n"
            "node_update_layers=256,256\n"
            "edge_update_layers=256,256\n"
            "global_update_layers=256,256\n"
            "decoder_layers=256,256\n"
            "message_passing_iterations=8\n"
            "use_layer_norm=1\n"
            "use_residual=1\n"
            "num_tasks=1\n"
            "decoder_output_bias_init=0\n"
            "seed=42\n");
}

TEST(ConfigSerializationTest, NonDefaultGraniteConfigText) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(16);
  config.node_update_layers = {};
  config.decoder_layers = {48, 24, 12};
  config.message_passing_iterations = 5;
  config.use_layer_norm = false;
  config.use_residual = false;
  config.num_tasks = 3;
  config.decoder_output_bias_init = 0.1f;
  config.seed = 18446744073709551615ull;
  // The kernel backend is a runtime choice and is not serialized.
  config.kernel_backend = ml::KernelBackendKind::kReference;
  EXPECT_EQ(SerializeFields(config),
            "node_embedding_size=16\n"
            "edge_embedding_size=16\n"
            "global_embedding_size=16\n"
            "node_update_layers=\n"
            "edge_update_layers=16,16\n"
            "global_update_layers=16,16\n"
            "decoder_layers=48,24,12\n"
            "message_passing_iterations=5\n"
            "use_layer_norm=0\n"
            "use_residual=0\n"
            "num_tasks=3\n"
            "decoder_output_bias_init=0.100000001\n"
            "seed=18446744073709551615\n");
}

TEST(ConfigSerializationTest, IthemalConfigTextPerDecoder) {
  ithemal::IthemalConfig config;
  EXPECT_EQ(SerializeFields(config),
            "embedding_size=256\n"
            "hidden_size=256\n"
            "decoder=dot_product\n"
            "decoder_layers=256,256\n"
            "decoder_layer_norm=1\n"
            "num_tasks=1\n"
            "decoder_output_bias_init=0\n"
            "seed=42\n");
  config = config.WithEmbeddingSize(12);
  config.decoder = ithemal::DecoderKind::kMlp;
  config.decoder_layers = {12, 6};
  config.decoder_layer_norm = false;
  config.num_tasks = 2;
  config.decoder_output_bias_init = -2.5f;
  config.seed = 5;
  EXPECT_EQ(SerializeFields(config),
            "embedding_size=12\n"
            "hidden_size=12\n"
            "decoder=mlp\n"
            "decoder_layers=12,6\n"
            "decoder_layer_norm=0\n"
            "num_tasks=2\n"
            "decoder_output_bias_init=-2.5\n"
            "seed=5\n");
}

TEST(ScaledLayersTest, PreservesDepth) {
  EXPECT_EQ(ScaledLayers({256, 256}, 16), (std::vector<int>{16, 16}));
  EXPECT_EQ(ScaledLayers({64, 128, 64}, 8), (std::vector<int>{8, 8, 8}));
  EXPECT_TRUE(ScaledLayers({}, 8).empty());
}

}  // namespace
}  // namespace granite::model
