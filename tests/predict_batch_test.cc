/**
 * @file
 * Tests of GraniteModel::PredictBatch and its LRU prediction cache,
 * including the acceptance property that cache hits bypass the GNN
 * forward pass entirely (verified by counting forward passes), and the
 * cache's generation contract under concurrent callers, parameter
 * updates and resizes.
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "asm/parser.h"
#include "core/granite_model.h"
#include "gtest/gtest.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "ml/kernels/kernel_backend.h"
#include "uarch/measurement.h"

namespace granite::core {
namespace {

assembly::BasicBlock Parse(const char* text) {
  const auto result = assembly::ParseBasicBlock(text);
  EXPECT_TRUE(result.ok()) << result.error;
  return *result.value;
}

class PredictBatchTest : public ::testing::Test {
 protected:
  PredictBatchTest() : vocabulary_(graph::Vocabulary::CreateDefault()) {}

  GraniteConfig SmallConfig(int num_tasks = 1) {
    GraniteConfig config = GraniteConfig().WithEmbeddingSize(8);
    config.message_passing_iterations = 2;
    config.num_tasks = num_tasks;
    return config;
  }

  graph::Vocabulary vocabulary_;
  const assembly::BasicBlock a_ = Parse("ADD RAX, RBX");
  const assembly::BasicBlock b_ = Parse("MOV RCX, 1\nIMUL RCX, RDX");
  const assembly::BasicBlock c_ = Parse("SUB RDI, RSI\nXOR RAX, RAX");
};

/**
 * A GraniteModel with a scripted uncached forward pass: every task head
 * of every block answers the parameter generation read when the pass
 * started, so a served value tells which generation computed it.
 * `on_forward`, when set, runs in the middle of each pass.
 */
class GenerationEchoModel : public GraniteModel {
 public:
  using GraniteModel::GraniteModel;

  std::size_t forwards() const { return forwards_.load(); }

  std::function<void()> on_forward;

 protected:
  std::vector<std::vector<double>> ComputeBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks) const override {
    ++forwards_;
    const double generation = static_cast<double>(parameters().generation());
    if (on_forward) on_forward();
    return std::vector<std::vector<double>>(
        blocks.size(), std::vector<double>(num_tasks(), generation));
  }

 private:
  mutable std::atomic<std::size_t> forwards_{0};
};

/**
 * Four threads call PredictBatchAllTasks(batch) while `disturb(round)`
 * runs on a fifth thread between short sleeps. Returns how many answers
 * were computed at an older generation than their caller read on entry.
 */
int CountStaleAnswers(GenerationEchoModel& model,
                      const std::vector<const assembly::BasicBlock*>& batch,
                      const std::function<void(int round)>& disturb) {
  // A slow forward pass widens the window in which a generation bump and
  // another caller's lookup can land between this call's lookup and
  // insert.
  model.on_forward = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  };
  std::atomic<int> stale{0};
  std::atomic<int> callers_left{4};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int call = 0; call < 2000; ++call) {
        const double entry_generation =
            static_cast<double>(model.parameters().generation());
        for (const std::vector<double>& heads :
             model.PredictBatchAllTasks(batch)) {
          EXPECT_EQ(heads.size(), static_cast<std::size_t>(model.num_tasks()));
          for (const double value : heads) {
            if (value < entry_generation) ++stale;
          }
        }
      }
      --callers_left;
    });
  }
  std::thread disturber([&] {
    for (int round = 0; callers_left.load() > 0; ++round) {
      disturb(round);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (std::thread& caller : callers) caller.join();
  disturber.join();
  return stale.load();
}

TEST_F(PredictBatchTest, UncachedMatchesPredict) {
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_};
  GraniteModel model(&vocabulary_, SmallConfig());
  EXPECT_EQ(model.PredictBatch(blocks, 0), model.Predict(blocks, 0));

  // Every task head, on a model whose backend is not the process default.
  GraniteConfig reference_config = SmallConfig(/*num_tasks=*/2);
  reference_config.kernel_backend = ml::KernelBackendKind::kReference;
  GraniteModel reference(&vocabulary_, reference_config);
  for (int task = 0; task < 2; ++task) {
    EXPECT_EQ(reference.PredictBatch(blocks, task),
              reference.Predict(blocks, task));
  }

  const graph::Vocabulary ithemal_vocabulary =
      ithemal::CreateIthemalVocabulary();
  for (const ithemal::DecoderKind decoder :
       {ithemal::DecoderKind::kDotProduct, ithemal::DecoderKind::kMlp}) {
    ithemal::IthemalConfig config =
        ithemal::IthemalConfig().WithEmbeddingSize(8);
    config.decoder = decoder;
    config.num_tasks = 2;
    const ithemal::IthemalModel ithemal(&ithemal_vocabulary, config);
    for (int task = 0; task < 2; ++task) {
      EXPECT_EQ(ithemal.PredictBatch(blocks, task),
                ithemal.Predict(blocks, task));
    }
  }
}

TEST_F(PredictBatchTest, CachedMatchesPredict) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_, &c_};
  const std::vector<double> expected = model.Predict(blocks, 0);
  const std::vector<double> cold = model.PredictBatch(blocks, 0);
  const std::vector<double> warm = model.PredictBatch(blocks, 0);
  ASSERT_EQ(cold.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold[i], expected[i]);
    EXPECT_DOUBLE_EQ(warm[i], expected[i]);
  }
}

TEST_F(PredictBatchTest, CacheHitsBypassTheForwardPass) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_};

  const std::size_t passes_before = model.num_forward_passes();
  model.PredictBatch(blocks, 0);
  const std::size_t passes_cold = model.num_forward_passes();
  EXPECT_EQ(passes_cold, passes_before + 1);
  EXPECT_EQ(model.prediction_cache_misses(), 2u);

  // Every block is cached now: the second call must not invoke the GNN.
  model.PredictBatch(blocks, 0);
  EXPECT_EQ(model.num_forward_passes(), passes_cold);
  EXPECT_EQ(model.prediction_cache_hits(), 2u);
}

TEST_F(PredictBatchTest, DuplicateBlocksForwardOnlyOnce) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  // Equal text, distinct objects: canonical hashing must unify them.
  const assembly::BasicBlock a_copy = Parse("ADD RAX, RBX");
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &a_copy,
                                                           &a_, &b_};
  const std::size_t passes_before = model.num_forward_passes();
  const std::vector<double> result = model.PredictBatch(blocks, 0);
  EXPECT_EQ(model.num_forward_passes(), passes_before + 1);
  EXPECT_DOUBLE_EQ(result[0], result[1]);
  EXPECT_DOUBLE_EQ(result[0], result[2]);
}

/** True when both results hold the same rows of the same doubles, bit
 * for bit. */
bool BitEqual(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(PredictBatchTest, KeyedMatchesUnkeyed) {
  // Two identically built models, one answered through caller-supplied
  // keys: cold with in-batch duplicates, then from the cache, then with
  // the cache off.
  GraniteModel keyed(&vocabulary_, SmallConfig(/*num_tasks=*/2));
  GraniteModel unkeyed(&vocabulary_, SmallConfig(/*num_tasks=*/2));
  keyed.EnablePredictionCache(16);
  unkeyed.EnablePredictionCache(16);
  const assembly::BasicBlock a_copy = Parse("ADD RAX, RBX");
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_, &a_copy,
                                                           &c_, &a_};
  std::vector<uint64_t> keys;
  for (const assembly::BasicBlock* block : blocks) {
    keys.push_back(uarch::BlockFingerprint(*block));
  }

  const std::size_t passes_before = keyed.num_forward_passes();
  EXPECT_TRUE(BitEqual(keyed.PredictBatchAllTasks(blocks, keys),
                       unkeyed.PredictBatchAllTasks(blocks)));
  EXPECT_EQ(keyed.num_forward_passes(), passes_before + 1);
  EXPECT_EQ(keyed.prediction_cache_misses(), 5u);

  EXPECT_TRUE(BitEqual(keyed.PredictBatchAllTasks(blocks, keys),
                       unkeyed.PredictBatchAllTasks(blocks)));
  EXPECT_EQ(keyed.num_forward_passes(), passes_before + 1);
  EXPECT_EQ(keyed.prediction_cache_hits(), 5u);
  EXPECT_EQ(unkeyed.prediction_cache_hits(), 5u);

  keyed.EnablePredictionCache(0);
  unkeyed.EnablePredictionCache(0);
  EXPECT_TRUE(BitEqual(keyed.PredictBatchAllTasks(blocks, keys),
                       unkeyed.PredictBatchAllTasks(blocks)));
  EXPECT_TRUE(BitEqual(keyed.PredictBatchAllTasks(blocks, keys),
                       keyed.PredictBatchAllTasks(blocks)));
}

TEST_F(PredictBatchTest, CachesEveryTaskHead) {
  GraniteModel model(&vocabulary_, SmallConfig(/*num_tasks=*/3));
  model.EnablePredictionCache(16);
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_};
  const std::vector<double> expected_task2 = model.Predict(blocks, 2);

  model.PredictBatch(blocks, 0);
  const std::size_t passes_after_warmup = model.num_forward_passes();
  // A different head served from the same cache entries: no new forward.
  const std::vector<double> task2 = model.PredictBatch(blocks, 2);
  EXPECT_EQ(model.num_forward_passes(), passes_after_warmup);
  for (std::size_t i = 0; i < task2.size(); ++i) {
    EXPECT_DOUBLE_EQ(task2[i], expected_task2[i]);
  }
}

TEST_F(PredictBatchTest, EvictionTriggersRecompute) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(1);
  model.PredictBatch({&a_}, 0);
  model.PredictBatch({&b_}, 0);  // Evicts a_.
  const std::size_t passes = model.num_forward_passes();
  model.PredictBatch({&a_}, 0);  // Miss again.
  EXPECT_EQ(model.num_forward_passes(), passes + 1);
}

TEST_F(PredictBatchTest, EmptyBatchIsFine) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(4);
  EXPECT_TRUE(model.PredictBatch({}, 0).empty());
}

TEST_F(PredictBatchTest, DisablingTheCacheRestoresPlainInference) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(4);
  model.PredictBatch({&a_}, 0);
  model.EnablePredictionCache(0);
  const std::size_t passes = model.num_forward_passes();
  model.PredictBatch({&a_}, 0);  // No cache: always forwards.
  EXPECT_EQ(model.num_forward_passes(), passes + 1);
  EXPECT_EQ(model.prediction_cache_hits(), 0u);
}

TEST_F(PredictBatchTest, ParameterUpdatesInvalidateTheCache) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  const std::vector<const assembly::BasicBlock*> blocks = {&a_, &b_};
  const std::vector<double> before = model.PredictBatch(blocks, 0);

  // Simulate a training step: perturb a weight and bump the generation
  // the way Optimizer::Step does.
  ml::Parameter* weight =
      model.parameters().Get("decoder/task0/output/bias");
  weight->value.Fill(3.5f);
  model.parameters().BumpGeneration();

  // Stale entries must not be served: the next call re-runs the GNN and
  // returns predictions for the *new* parameters.
  const std::size_t passes = model.num_forward_passes();
  const std::vector<double> after = model.PredictBatch(blocks, 0);
  EXPECT_EQ(model.num_forward_passes(), passes + 1);
  EXPECT_NE(before, after);
  EXPECT_EQ(after, model.Predict(blocks, 0));
}

TEST_F(PredictBatchTest, SnapshotRestoreInvalidatesTheCache) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  const std::vector<ml::Tensor> snapshot =
      model.parameters().SnapshotValues();
  model.PredictBatch({&a_}, 0);

  // RestoreValues bumps the generation even though values are identical;
  // the conservative invalidation costs one forward pass.
  model.parameters().RestoreValues(snapshot);
  const std::size_t passes = model.num_forward_passes();
  model.PredictBatch({&a_}, 0);
  EXPECT_EQ(model.num_forward_passes(), passes + 1);
}

TEST_F(PredictBatchTest, UnchangedParametersKeepServingFromCache) {
  GraniteModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  model.PredictBatch({&a_, &b_}, 0);
  const std::size_t passes = model.num_forward_passes();
  // No parameter mutation in between: repeated calls stay pure hits.
  model.PredictBatch({&a_, &b_}, 0);
  model.PredictBatch({&b_, &a_}, 0);
  EXPECT_EQ(model.num_forward_passes(), passes);
}

TEST_F(PredictBatchTest, ForwardOverlappingAGenerationBumpIsNotCached) {
  GenerationEchoModel model(&vocabulary_, SmallConfig());
  model.EnablePredictionCache(16);
  ml::ParameterStore& parameters = model.parameters();
  const auto now = [&] { return static_cast<double>(parameters.generation()); };

  // A parameter update lands while the forward pass runs: its results
  // were computed (at least partly) under the old parameters, so they
  // are not inserted and the next call forwards again.
  bool bump = true;
  model.on_forward = [&] {
    if (bump) parameters.BumpGeneration();
    bump = false;
  };
  model.PredictBatch({&a_}, 0);
  EXPECT_EQ(model.forwards(), 1u);
  EXPECT_EQ(model.PredictBatch({&a_}, 0), std::vector<double>{now()});
  EXPECT_EQ(model.forwards(), 2u);
  model.PredictBatch({&a_}, 0);
  EXPECT_EQ(model.forwards(), 2u);  // A forward at one generation caches.

  // Same, with a caller at the new generation finishing in between (the
  // nested call stands in for a concurrent one): its current entry must
  // not be overwritten by the overlapped forward's older result.
  bool interleave = true;
  model.on_forward = [&] {
    if (!interleave) return;
    interleave = false;
    parameters.BumpGeneration();
    EXPECT_EQ(model.PredictBatch({&b_}, 0), std::vector<double>{now()});
  };
  model.PredictBatch({&b_}, 0);
  const std::size_t forwards = model.forwards();
  EXPECT_EQ(model.PredictBatch({&b_}, 0), std::vector<double>{now()});
  EXPECT_EQ(model.forwards(), forwards);  // Served the nested call's entry.
}

TEST_F(PredictBatchTest, ConcurrentCallsNeverServeOlderThanTheirGeneration) {
  GenerationEchoModel model(&vocabulary_, SmallConfig(/*num_tasks=*/2));
  model.EnablePredictionCache(8);
  const auto bump = [&](int) { model.parameters().BumpGeneration(); };
  EXPECT_EQ(CountStaleAnswers(model, {&a_, &b_, &c_, &a_}, bump), 0);
  EXPECT_GT(model.prediction_cache_hits(), 0u);
}

TEST_F(PredictBatchTest, ResizesRaceWithInFlightCalls) {
  GenerationEchoModel model(&vocabulary_, SmallConfig(/*num_tasks=*/2));
  model.EnablePredictionCache(8);
  // Resizes (including disabling the cache) interleave with lookups,
  // forwards and inserts; every answer still honours the generation
  // contract.
  constexpr std::size_t kCapacities[] = {1, 0, 16, 4};
  EXPECT_EQ(CountStaleAnswers(model, {&a_, &b_, &c_},
                              [&](int round) {
                                model.parameters().BumpGeneration();
                                model.EnablePredictionCache(
                                    kCapacities[round % 4]);
                              }),
            0);
}

}  // namespace
}  // namespace granite::core
