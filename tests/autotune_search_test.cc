/**
 * @file
 * Beam-search driver suite: recovery of pessimized blocks against the
 * analytical oracle backend, search bookkeeping (dedup, depth, deadline),
 * and the served path — a live InferenceServer scored via SubmitMany,
 * where cross-wave candidate resubmission must surface as prediction
 * cache hits. Concurrency discipline follows inference_server_test: no
 * sleeps-as-sync, futures are the only synchronization.
 */
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asm/parser.h"
#include "autotune/search.h"
#include "autotune/transforms.h"
#include "base/string_util.h"
#include "core/granite_model.h"
#include "dataset/generator.h"
#include "graph/vocabulary.h"
#include "gtest/gtest.h"
#include "serve/inference_server.h"
#include "uarch/throughput_model.h"

namespace granite::autotune {
namespace {

using assembly::BasicBlock;

BasicBlock Parse(std::string_view text) {
  assembly::ParseResult<BasicBlock> result =
      assembly::ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

constexpr uarch::Microarchitecture kUarch =
    uarch::Microarchitecture::kHaswell;

TEST(AnalyticalSearchTest, RecoversStrengthReducedSpelling) {
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 3;
  BlockOptimizer optimizer(&client, config);

  const BasicBlock naive = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  const OptimizeResult result = optimizer.Optimize(naive);
  ASSERT_TRUE(result.scored);
  EXPECT_TRUE(result.improved);
  EXPECT_LT(result.best_cost, result.original_cost);
  EXPECT_GT(result.predicted_speedup, 1.0);
  ASSERT_FALSE(result.applied.empty());
  EXPECT_EQ(result.applied.front(), "strength-reduce");
  // The winner must be one of the cheap spellings of *5.
  const uarch::ThroughputModel oracle(kUarch);
  EXPECT_DOUBLE_EQ(oracle.CyclesPerIteration(result.best),
                   result.best_cost);
}

TEST(AnalyticalSearchTest, RecoversPessimizedBlocks) {
  // Closed loop: pessimize an already-tight block with the catalog's
  // worsening direction, then require the search to win all the cost
  // back (every DeoptimizeBlock step has a catalog inverse).
  const uarch::ThroughputModel oracle(kUarch);
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.beam_width = 6;
  config.max_depth = 6;
  BlockOptimizer optimizer(&client, config);

  const std::vector<std::string> tight_blocks = {
      "SHL RAX, 3\nADD RAX, RBX",
      "ADD QWORD PTR [RBX], RCX\nADD RDX, RSI",
      // Loop-carried through RAX, so strength-raising to IMUL is a real
      // pessimization (the block is not stuck at the one-cycle floor).
      "LEA RAX, [RAX + 4*RAX]\nADD RAX, RBX",
  };
  for (const std::string& text : tight_blocks) {
    const BasicBlock tight = Parse(text);
    const double tight_cost = oracle.CyclesPerIteration(tight);
    const BasicBlock naive = DeoptimizeBlock(tight, oracle, 4);
    const double naive_cost = oracle.CyclesPerIteration(naive);
    ASSERT_GT(naive_cost, tight_cost) << text;

    const OptimizeResult result = optimizer.Optimize(naive);
    ASSERT_TRUE(result.scored);
    EXPECT_TRUE(result.improved) << naive.ToString();
    EXPECT_LE(result.best_cost, tight_cost + 1e-9)
        << "search failed to recover " << text << " from\n"
        << naive.ToString() << "\nbest found:\n" << result.best.ToString();
  }
}

TEST(AnalyticalSearchTest, AlreadyOptimalBlockIsReturnedUnchanged) {
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 3;
  BlockOptimizer optimizer(&client, config);

  // A lone dependent ADD chain: no catalog rewrite makes it cheaper.
  const BasicBlock block = Parse("ADD RAX, RBX\nADD RBX, RAX");
  const OptimizeResult result = optimizer.Optimize(block);
  ASSERT_TRUE(result.scored);
  EXPECT_FALSE(result.improved);
  EXPECT_EQ(result.best.ToString(), block.ToString());
  EXPECT_DOUBLE_EQ(result.best_cost, result.original_cost);
  EXPECT_EQ(result.predicted_speedup, 1.0);
}

TEST(AnalyticalSearchTest, BookkeepingIsConsistent) {
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 4;
  BlockOptimizer optimizer(&client, config);

  const BasicBlock block =
      Parse("IMUL RAX, RAX, 8\nADD RAX, RBX\nADD RCX, RDX");
  const OptimizeResult result = optimizer.Optimize(block);
  ASSERT_TRUE(result.scored);
  EXPECT_GT(result.candidates_generated, 0u);
  // Generated = scored + in-wave duplicates + rejected (analytical
  // backend rejects nothing).
  EXPECT_EQ(result.candidates_generated,
            result.candidates_scored + result.duplicates_skipped);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_GE(result.depth_reached, 1);
  EXPECT_LE(result.depth_reached, config.max_depth);
  // Sibling derivations collide (commuting rewrites): dedup must fire.
  EXPECT_GT(result.duplicates_skipped, 0u);
}

/** A digest of what the search returns for 40 pessimized generator
 * blocks: each best block and its cost bits, the rule path that built
 * it, and the candidate counts. A change moves what the autotuner
 * reports and must be made on purpose. */
TEST(AnalyticalSearchTest, SearchResultDigest) {
  dataset::GeneratorConfig generator_config;
  generator_config.max_instructions = 8;
  dataset::BlockGenerator generator(generator_config, /*seed=*/9);
  const uarch::ThroughputModel oracle(kUarch);
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 6;
  BlockOptimizer optimizer(&client, config);

  uint64_t digest = kFnvOffsetBasis;
  const auto fold_count = [&digest](std::size_t count) {
    digest = Fnv1a(digest, std::to_string(count));
    digest = Fnv1a(digest, "\n");
  };
  int improved = 0;
  std::size_t longest_path = 0;
  for (int i = 0; i < 40; ++i) {
    const OptimizeResult result =
        optimizer.Optimize(DeoptimizeBlock(generator.Generate(), oracle));
    ASSERT_TRUE(result.scored);
    improved += result.improved ? 1 : 0;
    longest_path = std::max(longest_path, result.applied.size());
    digest = Fnv1a(digest, result.best.ToString());
    digest = Fnv1a(digest, "\n");
    const uint64_t cost_bits = std::bit_cast<uint64_t>(result.best_cost);
    digest = Fnv1a(digest,
                   std::string_view(reinterpret_cast<const char*>(&cost_bits),
                                    sizeof(cost_bits)));
    for (const std::string& rule : result.applied) {
      digest = Fnv1a(digest, rule);
      digest = Fnv1a(digest, "\n");
    }
    fold_count(result.candidates_generated);
    fold_count(result.candidates_scored);
    fold_count(result.duplicates_skipped);
  }
  // The digest must cover improved results with multi-step paths.
  EXPECT_GT(improved, 10);
  EXPECT_GE(longest_path, 3u);
  EXPECT_EQ(digest, 0xAFE52281757C59FBull) << std::hex << digest;
}

TEST(AnalyticalSearchTest, ZeroDepthScoresButNeverRewrites) {
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.max_depth = 0;
  BlockOptimizer optimizer(&client, config);
  const BasicBlock block = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  const OptimizeResult result = optimizer.Optimize(block);
  EXPECT_TRUE(result.scored);
  EXPECT_FALSE(result.improved);
  EXPECT_EQ(result.candidates_generated, 0u);
  EXPECT_EQ(result.best.ToString(), block.ToString());
}

TEST(AnalyticalSearchTest, ExpiredDeadlineStopsBeforeTheFirstWave) {
  AnalyticalCostClient client(kUarch);
  SearchConfig config;
  config.max_depth = 5;
  // Already expired when the first wave is considered: the search must
  // report deadline_hit with no candidates scored.
  config.deadline = std::chrono::microseconds(1);
  BlockOptimizer optimizer(&client, config);
  const BasicBlock block = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  // Burn past the 1us deadline deterministically.
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::microseconds(10)) {
  }
  const OptimizeResult result = optimizer.Optimize(block);
  EXPECT_TRUE(result.scored);
  EXPECT_TRUE(result.deadline_hit);
  EXPECT_EQ(result.depth_reached, 0);
  EXPECT_FALSE(result.improved);
}

/** Scores every block at the same negative cost, as an untrained or
 * extrapolating model can. */
class ConstantCostClient : public CostClient {
 public:
  explicit ConstantCostClient(double cost) : cost_(cost) {}

  std::vector<std::optional<std::future<double>>> SubmitWave(
      const std::vector<const BasicBlock*>& blocks) override {
    std::vector<std::optional<std::future<double>>> futures;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      std::promise<double> promise;
      promise.set_value(cost_);
      futures.push_back(promise.get_future());
    }
    return futures;
  }

 private:
  double cost_;
};

TEST(AnalyticalSearchTest, EqualNegativeCostIsNotAnImprovement) {
  // Every candidate ties the original. A margin of original * (1 - gain)
  // lies *above* a negative original, which would adopt a tie.
  ConstantCostClient client(-2.5);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 3;
  BlockOptimizer optimizer(&client, config);
  const BasicBlock block = Parse("IMUL RAX, RAX, 5\nADD RAX, RBX");
  const OptimizeResult result = optimizer.Optimize(block);
  ASSERT_TRUE(result.scored);
  EXPECT_GT(result.candidates_scored, 0u);
  EXPECT_FALSE(result.improved);
  EXPECT_EQ(result.best.ToString(), block.ToString());
  EXPECT_EQ(result.best_cost, result.original_cost);
  EXPECT_EQ(result.predicted_speedup, 1.0);
  EXPECT_TRUE(result.applied.empty());
}

// ---- Served path ------------------------------------------------------

class ServedSearchTest : public ::testing::Test {
 protected:
  ServedSearchTest() : vocabulary_(graph::Vocabulary::CreateDefault()) {
    core::GraniteConfig model_config =
        core::GraniteConfig().WithEmbeddingSize(8);
    model_config.message_passing_iterations = 2;
    model_config.num_tasks = 1;
    model_ =
        std::make_unique<core::GraniteModel>(&vocabulary_, model_config);
  }

  graph::Vocabulary vocabulary_;
  std::unique_ptr<core::GraniteModel> model_;
};

TEST_F(ServedSearchTest, ServerBackedSearchScoresWavesAndHitsCache) {
  serve::InferenceServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_batch_size = 16;
  server_config.batch_window = std::chrono::microseconds(200);
  server_config.prediction_cache_capacity = 4096;
  serve::InferenceServer server(model_.get(), server_config);

  ServerCostClient client(&server, /*task=*/0);
  SearchConfig config;
  config.beam_width = 4;
  config.max_depth = 4;
  BlockOptimizer optimizer(&client, config);

  const uarch::ThroughputModel oracle(kUarch);
  const BasicBlock tight = Parse("SHL RAX, 3\nADD RAX, RBX\nADD RCX, RDX");
  const BasicBlock naive = DeoptimizeBlock(tight, oracle, 3);
  const OptimizeResult result = optimizer.Optimize(naive);
  ASSERT_TRUE(result.scored);
  EXPECT_GT(result.candidates_scored, 0u);
  // Whatever the (untrained) model preferred, the result must be a real
  // block that round-trips.
  assembly::ParseResult<BasicBlock> reparsed =
      assembly::ParseBasicBlock(result.best.ToString());
  ASSERT_TRUE(reparsed.ok());

  const serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed,
            result.candidates_scored + 1);  // +1 for the original.
  EXPECT_EQ(stats.rejected, 0u);
  // Beam siblings re-derive ancestors (undo moves) in later waves; the
  // search resubmits them and the server's prediction cache answers.
  EXPECT_GT(stats.cache_hit_rate, 0.0)
      << "cross-wave resubmission produced no cache hits";
}

TEST_F(ServedSearchTest, ConcurrentOptimizersShareOneServer) {
  serve::InferenceServerConfig server_config;
  server_config.num_workers = 2;
  server_config.max_batch_size = 8;
  server_config.batch_window = std::chrono::microseconds(200);
  server_config.prediction_cache_capacity = 4096;
  serve::InferenceServer server(model_.get(), server_config);

  dataset::GeneratorConfig generator_config;
  generator_config.max_instructions = 6;
  dataset::BlockGenerator generator(generator_config, /*seed=*/7);
  const std::vector<BasicBlock> blocks = generator.GenerateMany(6);

  std::vector<OptimizeResult> results(blocks.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      threads.emplace_back([&, i] {
        ServerCostClient client(&server, /*task=*/0);
        SearchConfig config;
        config.beam_width = 2;
        config.max_depth = 2;
        BlockOptimizer optimizer(&client, config);
        results[i] = optimizer.Optimize(blocks[i]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_TRUE(results[i].scored) << i;
    EXPECT_EQ(results[i].rejected, 0u) << i;
  }
  const serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST_F(ServedSearchTest, ShutdownServerYieldsUnscoredResult) {
  serve::InferenceServerConfig server_config;
  serve::InferenceServer server(model_.get(), server_config);
  server.Shutdown();

  ServerCostClient client(&server, /*task=*/0);
  BlockOptimizer optimizer(&client, SearchConfig());
  const BasicBlock block = Parse("ADD RAX, RBX");
  const OptimizeResult result = optimizer.Optimize(block);
  EXPECT_FALSE(result.scored);
  EXPECT_FALSE(result.improved);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_EQ(result.best.ToString(), block.ToString());
}

}  // namespace
}  // namespace granite::autotune
