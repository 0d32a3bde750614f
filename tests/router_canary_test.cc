/**
 * @file
 * Canary-policy suite for serve::ModelRouter: weighted A/B splits
 * (deterministic, bit-exact per arm), shadow traffic (candidate
 * predictions compared but never returned, candidate overload isolated
 * from clients) and the promote-on-parity state machine.
 *
 * Synchronization discipline: client correctness is always asserted
 * through futures (no sleeps-as-sync). The verdict is the one genuinely
 * asynchronous piece of state; tests wait for it with a bounded poll of
 * ShadowStatus(), which compares every answered pair — the verdict is
 * guaranteed once min_comparisons answered pairs exist, so the poll
 * terminates.
 */
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "model/checkpoint.h"
#include "serve/model_router.h"

namespace granite::serve {
namespace {

using std::chrono::microseconds;

/** A 10-second window: never expires within a test. */
constexpr microseconds kNeverWindow{10'000'000};

class RouterCanaryTest : public ::testing::Test {
 protected:
  RouterCanaryTest() {
    dataset::BlockGenerator generator(dataset::GeneratorConfig(), 7654);
    blocks_ = generator.GenerateMany(10);
    directory_ = std::filesystem::temp_directory_path() /
                 ("router_canary_test_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(directory_);
  }

  ~RouterCanaryTest() override {
    std::error_code ignored;
    std::filesystem::remove_all(directory_, ignored);
  }

  static std::unique_ptr<core::GraniteModel> MakeGranite(uint64_t seed) {
    core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
    config.message_passing_iterations = 2;
    config.seed = seed;
    return std::make_unique<core::GraniteModel>(
        std::make_unique<graph::Vocabulary>(
            graph::Vocabulary::CreateDefault()),
        config);
  }

  /** Saves `model` as a bundle and reloads it (the served artifact). */
  std::unique_ptr<model::ThroughputPredictor> ThroughBundle(
      const model::ThroughputPredictor& model, const std::string& name) {
    const std::string path = (directory_ / (name + ".gmb")).string();
    model::SaveModel(model, path);
    return model::LoadModel(path);
  }

  /** Per-block expectations computed one block at a time; serving must
   * reproduce them exactly from any batch composition. */
  std::vector<double> ExpectedAlone(
      const model::ThroughputPredictor& model, int task) const {
    std::vector<double> expected(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      expected[i] = model.PredictBatch({&blocks_[i]}, task)[0];
    }
    return expected;
  }

  /** Bounded wait for the shadow verdict; fails the test on
   * timeout instead of hanging. */
  static CanaryState AwaitVerdict(const ModelRouter& router,
                                  const std::string& name) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      const std::optional<ShadowStats> status = router.ShadowStatus(name);
      EXPECT_TRUE(status.has_value());
      if (!status.has_value()) return CanaryState::kShadowing;
      if (status->state != CanaryState::kShadowing) return status->state;
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "verdict not reached within 10 s";
        return CanaryState::kShadowing;
      }
      std::this_thread::yield();
    }
  }

  std::vector<assembly::BasicBlock> blocks_;
  std::filesystem::path directory_;
};

TEST_F(RouterCanaryTest, SplitRoutesDeterministicallyAndBitExactPerArm) {
  const auto model_a = MakeGranite(42);
  const auto model_b = MakeGranite(991);
  const std::vector<double> expected_a = ExpectedAlone(*model_a, 0);
  const std::vector<double> expected_b = ExpectedAlone(*model_b, 0);

  InferenceServerConfig config;
  config.batch_window = microseconds{200};
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"a", ThroughBundle(*model_a, "a")});
  setup.models.push_back({"b", ThroughBundle(*model_b, "b")});
  setup.splits.push_back({"mix", "a", "b", /*weight_a=*/0.5});
  ModelRouter router(std::move(setup));

  // Every answer is bit-exact for ONE of the arms (mirrored traffic
  // never mixes models), and the arm choice is stable per block.
  std::vector<double> first_pass(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    first_pass[i] = router.Submit("mix", &blocks_[i], 0).value().get();
    EXPECT_TRUE(first_pass[i] == expected_a[i] ||
                first_pass[i] == expected_b[i])
        << "block " << i << " matched neither arm";
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("mix", &blocks_[i], 0).value().get(), first_pass[i])
        << "arm choice must be deterministic per block";
  }

  const std::optional<SplitStats> status = router.SplitStatus("mix");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->route_a, "a");
  EXPECT_EQ(status->route_b, "b");
  EXPECT_EQ(status->to_a + status->to_b, 2 * blocks_.size());
  EXPECT_FALSE(router.SplitStatus("a").has_value());
}

TEST_F(RouterCanaryTest, DegenerateWeightsSendAllTrafficToOneArm) {
  const auto model_a = MakeGranite(42);
  const auto model_b = MakeGranite(991);
  const std::vector<double> expected_a = ExpectedAlone(*model_a, 0);
  const std::vector<double> expected_b = ExpectedAlone(*model_b, 0);

  InferenceServerConfig config;
  config.batch_window = microseconds{200};
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"a", ThroughBundle(*model_a, "a")});
  setup.models.push_back({"b", ThroughBundle(*model_b, "b")});
  setup.splits.push_back({"all_a", "a", "b", /*weight_a=*/1.0});
  setup.splits.push_back({"all_b", "a", "b", /*weight_a=*/0.0});
  ModelRouter router(std::move(setup));

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("all_a", &blocks_[i], 0).value().get(),
              expected_a[i]);
    EXPECT_EQ(router.Submit("all_b", &blocks_[i], 0).value().get(),
              expected_b[i]);
  }
  EXPECT_EQ(router.SplitStatus("all_a")->to_b, 0u);
  EXPECT_EQ(router.SplitStatus("all_b")->to_a, 0u);
}

TEST_F(RouterCanaryTest, ShadowPredictionsNeverReachClients) {
  // The candidate has different weights, so any leak of a candidate
  // prediction into a client answer is a bitwise-detectable mismatch.
  const auto primary = MakeGranite(42);
  const auto candidate = MakeGranite(991);
  const std::vector<double> expected = ExpectedAlone(*primary, 0);
  const std::vector<double> candidate_values =
      ExpectedAlone(*candidate, 0);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    ASSERT_NE(expected[i], candidate_values[i]) << "seeds must differ";
  }

  InferenceServerConfig config;
  config.num_workers = 2;
  config.max_batch_size = 8;
  config.batch_window = microseconds{100};
  config.prediction_cache_capacity = 64;
  ShadowConfig shadow;
  shadow.min_comparisons = 20;
  shadow.server_config = config;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*primary, "granite"),
                          ThroughBundle(*candidate, "candidate"), shadow});
  ModelRouter router(std::move(setup));
  const model::ThroughputPredictor* active_before =
      &router.Model("granite");
  EXPECT_EQ(router.ShadowStatus("granite")->state,
            CanaryState::kShadowing);

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::future<double>> futures;
      std::vector<std::size_t> sent;
      for (int r = 0; r < kRequestsPerProducer; ++r) {
        const std::size_t i = (p * 3 + r) % blocks_.size();
        auto future = router.Submit("granite", &blocks_[i], 0);
        if (!future.has_value()) {
          ++mismatches;
          continue;
        }
        futures.push_back(std::move(*future));
        sent.push_back(i);
      }
      for (std::size_t k = 0; k < futures.size(); ++k) {
        // Every client answer must be the PRIMARY's prediction.
        if (futures[k].get() != expected[sent[k]]) ++mismatches;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Divergent predictions: the verdict must be rejection, and the
  // active model must not have changed.
  EXPECT_EQ(AwaitVerdict(router, "granite"), CanaryState::kRejected);
  EXPECT_EQ(&router.Model("granite"), active_before);
  const ShadowStats status = *router.ShadowStatus("granite");
  EXPECT_GE(status.compared, 20u);
  EXPECT_EQ(status.parity, 0u);
  EXPECT_GT(status.max_rel_diff, 0.0);

  // After rejection the mirror is off: traffic still serves exactly.
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("granite", &blocks_[i], 0).value().get(),
              expected[i]);
  }
  router.Shutdown();
}

TEST_F(RouterCanaryTest, PromoteOnParitySwapsTheActiveModel) {
  const auto primary = MakeGranite(42);
  const std::vector<double> expected = ExpectedAlone(*primary, 0);

  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  config.prediction_cache_capacity = 64;
  // The candidate is a bundle twin of the primary: bit-identical
  // predictions, so every comparison is at parity (rtol 0).
  ShadowConfig shadow;
  shadow.min_comparisons = 20;
  shadow.auto_promote = true;
  shadow.server_config = config;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*primary, "granite"),
                          ThroughBundle(*primary, "twin"), shadow});
  ModelRouter router(std::move(setup));
  const model::ThroughputPredictor* active_before =
      &router.Model("granite");

  std::vector<std::future<double>> futures;
  std::vector<std::size_t> sent;
  for (int r = 0; r < 30; ++r) {
    const std::size_t i = r % blocks_.size();
    auto future = router.Submit("granite", &blocks_[i], 0);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
    sent.push_back(i);
  }
  for (std::size_t k = 0; k < futures.size(); ++k) {
    EXPECT_EQ(futures[k].get(), expected[sent[k]]);
  }

  EXPECT_EQ(AwaitVerdict(router, "granite"), CanaryState::kPromoted);
  // The candidate is now the active model, atomically hot-swapped.
  EXPECT_NE(&router.Model("granite"), active_before);
  const ShadowStats status = *router.ShadowStatus("granite");
  EXPECT_GE(status.compared, 20u);
  EXPECT_EQ(status.parity, status.compared);
  EXPECT_EQ(status.compare_failures, 0u);
  // Only the verdict's 20 samples of the 30 requests were mirrored.
  EXPECT_EQ(status.mirrored, 20u);
  EXPECT_DOUBLE_EQ(status.max_rel_diff, 0.0);

  // The promoted twin serves the same (bit-identical) predictions.
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("granite", &blocks_[i], 0).value().get(),
              expected[i]);
  }
  EXPECT_NE(router.StatsString().find("state=promoted"),
            std::string::npos);
  router.Shutdown();
}

TEST_F(RouterCanaryTest, ParityWithoutAutoPromoteKeepsTheActiveModel) {
  const auto primary = MakeGranite(42);

  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  ShadowConfig shadow;
  shadow.min_comparisons = 10;
  shadow.auto_promote = false;  // The verdict is reported, not applied.
  shadow.server_config = config;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*primary, "granite"),
                          ThroughBundle(*primary, "twin"), shadow});
  ModelRouter router(std::move(setup));
  const model::ThroughputPredictor* active_before =
      &router.Model("granite");

  for (int r = 0; r < 15; ++r) {
    router.Submit("granite", &blocks_[r % blocks_.size()], 0).value().get();
  }
  EXPECT_EQ(AwaitVerdict(router, "granite"), CanaryState::kPromoted);
  EXPECT_EQ(&router.Model("granite"), active_before);
  router.Shutdown();
}

/** A GRANITE model whose every prediction is NaN. */
class NanGraniteModel : public core::GraniteModel {
 public:
  using core::GraniteModel::GraniteModel;

 protected:
  std::vector<std::vector<double>> ComputeBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks)
      const override {
    return std::vector<std::vector<double>>(
        blocks.size(),
        std::vector<double>(num_tasks(),
                            std::numeric_limits<double>::quiet_NaN()));
  }
};

TEST_F(RouterCanaryTest, NonFiniteCandidateIsRejectedAtInfiniteDistance) {
  const auto primary = MakeGranite(42);
  const std::vector<double> expected = ExpectedAlone(*primary, 0);

  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  ShadowConfig shadow;
  shadow.min_comparisons = 10;
  shadow.server_config = config;
  core::GraniteConfig nan_config = core::GraniteConfig().WithEmbeddingSize(8);
  nan_config.message_passing_iterations = 2;
  RouterSetup setup{.server_config = config};
  setup.models.push_back(
      {"granite", ThroughBundle(*primary, "granite"),
       std::make_unique<NanGraniteModel>(
           std::make_unique<graph::Vocabulary>(
               graph::Vocabulary::CreateDefault()),
           nan_config),
       shadow});
  ModelRouter router(std::move(setup));
  const model::ThroughputPredictor* active_before =
      &router.Model("granite");

  for (int r = 0; r < 15; ++r) {
    const std::size_t i = r % blocks_.size();
    EXPECT_EQ(router.Submit("granite", &blocks_[i], 0).value().get(),
              expected[i]);
  }
  EXPECT_EQ(AwaitVerdict(router, "granite"), CanaryState::kRejected);
  EXPECT_EQ(&router.Model("granite"), active_before);
  const ShadowStats status = *router.ShadowStatus("granite");
  EXPECT_EQ(status.compared, 10u);
  EXPECT_EQ(status.parity, 0u);
  EXPECT_EQ(status.max_rel_diff, std::numeric_limits<double>::infinity());
  EXPECT_EQ(status.mean_abs_diff, std::numeric_limits<double>::infinity());
  router.Shutdown();
}

TEST_F(RouterCanaryTest, OverloadedCandidateNeverDelaysClients) {
  const auto primary = MakeGranite(42);
  const std::vector<double> expected = ExpectedAlone(*primary, 0);

  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  // A pathological candidate: one queue slot and a window that never
  // expires, so it accepts one mirrored request and rejects the rest
  // (the router forces OverflowPolicy::kReject on candidates).
  ShadowConfig shadow;
  shadow.min_comparisons = 1000;  // No verdict within this test.
  shadow.server_config.queue_capacity = 1;
  shadow.server_config.max_batch_size = 1000;
  shadow.server_config.batch_window = kNeverWindow;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*primary, "granite"),
                          ThroughBundle(*primary, "stuck"), shadow});
  ModelRouter router(std::move(setup));

  // Clients are answered promptly and exactly despite the stuck
  // candidate — each get() below would hang if mirroring coupled the
  // client to the candidate's queue.
  for (int r = 0; r < 30; ++r) {
    const std::size_t i = r % blocks_.size();
    EXPECT_EQ(router.Submit("granite", &blocks_[i], 0).value().get(),
              expected[i]);
  }
  const ShadowStats status = *router.ShadowStatus("granite");
  EXPECT_EQ(status.state, CanaryState::kShadowing);
  EXPECT_GT(status.mirror_rejects, 0u);
  EXPECT_EQ(status.mirrored + status.mirror_rejects, 30u);

  // Shutdown drains the stuck candidate and compares every pair.
  router.Shutdown();
  const ShadowStats final_status = *router.ShadowStatus("granite");
  EXPECT_EQ(final_status.compared + final_status.compare_failures,
            final_status.mirrored);
}

TEST_F(RouterCanaryTest, SplitOverShadowedRouteStaysExact) {
  // Splits resolve to model routes, whose shadow sessions apply as
  // usual — the composed path must still serve primary-exact values.
  const auto model_a = MakeGranite(42);
  const auto model_b = MakeGranite(991);
  const std::vector<double> expected_a = ExpectedAlone(*model_a, 0);

  InferenceServerConfig config;
  config.batch_window = microseconds{200};
  ShadowConfig shadow;
  shadow.min_comparisons = 1000;  // Stay shadowing for the whole test.
  shadow.server_config = config;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"a", ThroughBundle(*model_a, "a"),
                          ThroughBundle(*model_b, "candidate"), shadow});
  setup.models.push_back({"b", ThroughBundle(*model_b, "b")});
  setup.splits.push_back({"all_a", "a", "b", /*weight_a=*/1.0});
  ModelRouter router(std::move(setup));

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("all_a", &blocks_[i], 0).value().get(),
              expected_a[i]);
  }
  EXPECT_GT(router.ShadowStatus("a")->mirrored, 0u);
  router.Shutdown();
}

TEST_F(RouterCanaryTest, CandidateWithOtherTaskCountIsRefused) {
  // A mirrored request's task must exist on the candidate, so the
  // router refuses the pair before any server starts.
  core::GraniteConfig two_tasks = core::GraniteConfig().WithEmbeddingSize(8);
  two_tasks.num_tasks = 2;
  RouterSetup setup;
  setup.models.push_back(
      {"granite",
       std::make_unique<core::GraniteModel>(
           std::make_unique<graph::Vocabulary>(
               graph::Vocabulary::CreateDefault()),
           two_tasks),
       MakeGranite(42)});
  EXPECT_THROW({ ModelRouter router(std::move(setup)); }, RouterSetupError);
}

}  // namespace
}  // namespace granite::serve
