/**
 * @file
 * serve::ModelRouter suite: several named models (GRANITE + Ithemal+
 * loaded from checkpoint bundles) served concurrently behind one submit
 * API, with exact-value expectations (the same batch-composition
 * invariance the InferenceServer suite relies on), per-model per-task
 * stats, unknown-name handling, and the RouterSetupError refusal of
 * every setup the router cannot serve.
 */
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "model/checkpoint.h"
#include "serve/model_router.h"

namespace granite::serve {
namespace {

using std::chrono::microseconds;

class ModelRouterTest : public ::testing::Test {
 protected:
  ModelRouterTest() {
    dataset::BlockGenerator generator(dataset::GeneratorConfig(), 4321);
    blocks_ = generator.GenerateMany(10);
    directory_ = std::filesystem::temp_directory_path() /
                 ("model_router_test_" +
                  std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(directory_);
  }

  ~ModelRouterTest() override {
    std::error_code ignored;
    std::filesystem::remove_all(directory_, ignored);
  }

  static std::unique_ptr<core::GraniteModel> MakeGranite(int num_tasks,
                                                         uint64_t seed) {
    core::GraniteConfig config =
        core::GraniteConfig().WithEmbeddingSize(8);
    config.message_passing_iterations = 2;
    config.num_tasks = num_tasks;
    config.seed = seed;
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
    return std::make_unique<ithemal::IthemalModel>(
        std::make_unique<graph::Vocabulary>(
            ithemal::CreateIthemalVocabulary()),
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

  std::vector<assembly::BasicBlock> blocks_;
  std::filesystem::path directory_;
};

TEST_F(ModelRouterTest, RoutesByNameToTheRightModel) {
  const auto granite = MakeGranite(1, 42);
  const auto ithemal = MakeIthemalPlus(1);
  const std::vector<double> expected_granite = ExpectedAlone(*granite, 0);
  const std::vector<double> expected_ithemal = ExpectedAlone(*ithemal, 0);

  InferenceServerConfig config;
  config.batch_window = microseconds{200};
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*granite, "granite")});
  setup.models.push_back(
      {"ithemal_plus", ThroughBundle(*ithemal, "ithemal_plus")});
  ModelRouter router(std::move(setup));

  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(router.Submit("granite", &blocks_[i], 0).value().get(),
              expected_granite[i]);
    EXPECT_EQ(router.Submit("ithemal_plus", &blocks_[i], 0).value().get(),
              expected_ithemal[i]);
  }
}

TEST_F(ModelRouterTest, UnknownModelIsRejectedAndCounted) {
  RouterSetup setup;
  setup.models.push_back({"granite", MakeGranite(1, 42)});
  ModelRouter router(std::move(setup));
  EXPECT_FALSE(router.Submit("nope", &blocks_[0], 0).has_value());
  EXPECT_FALSE(router.Submit("nope", &blocks_[1], 0).has_value());
  EXPECT_EQ(router.unknown_model_requests(), 2u);
  // Known-model traffic is unaffected.
  EXPECT_TRUE(router.Submit("granite", &blocks_[0], 0).has_value());
}

TEST_F(ModelRouterTest, ServesBothModelsConcurrentlyFromBundles) {
  const auto granite = MakeGranite(/*num_tasks=*/2, 42);
  const auto ithemal = MakeIthemalPlus(/*num_tasks=*/2);
  const std::vector<std::vector<double>> expected_granite = {
      ExpectedAlone(*granite, 0), ExpectedAlone(*granite, 1)};
  const std::vector<std::vector<double>> expected_ithemal = {
      ExpectedAlone(*ithemal, 0), ExpectedAlone(*ithemal, 1)};

  InferenceServerConfig config;
  config.num_workers = 2;
  config.max_batch_size = 8;
  config.batch_window = microseconds{100};
  config.prediction_cache_capacity = 64;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"granite", ThroughBundle(*granite, "granite")});
  setup.models.push_back(
      {"ithemal_plus", ThroughBundle(*ithemal, "ithemal_plus")});
  ModelRouter router(std::move(setup));

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Producers alternate models and tasks so both servers see mixed
      // concurrent traffic.
      std::vector<std::future<double>> futures;
      std::vector<std::pair<std::size_t, int>> sent;
      const std::string name = p % 2 == 0 ? "granite" : "ithemal_plus";
      const auto& expected =
          p % 2 == 0 ? expected_granite : expected_ithemal;
      for (int r = 0; r < kRequestsPerProducer; ++r) {
        const std::size_t i = (p * 3 + r) % blocks_.size();
        const int task = r % 2;
        auto future = router.Submit(name, &blocks_[i], task);
        if (!future.has_value()) {
          ++mismatches;
          continue;
        }
        futures.push_back(std::move(*future));
        sent.emplace_back(i, task);
      }
      for (std::size_t k = 0; k < futures.size(); ++k) {
        if (futures[k].get() != expected[sent[k].second][sent[k].first]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(mismatches.load(), 0);
  router.Shutdown();

  // Per-model, per-task stats: each model saw its own traffic only, and
  // the per-task completion counters split it exactly.
  for (const char* name : {"granite", "ithemal_plus"}) {
    const ServerStats stats = router.Stats(name);
    const std::uint64_t total =
        static_cast<std::uint64_t>(kProducers / 2) * kRequestsPerProducer;
    EXPECT_EQ(stats.completed, total) << name;
    ASSERT_EQ(stats.per_task.size(), 2u) << name;
    EXPECT_EQ(stats.per_task[0].completed + stats.per_task[1].completed,
              total)
        << name;
    EXPECT_GT(stats.per_task[0].completed, 0u) << name;
    EXPECT_GT(stats.per_task[1].completed, 0u) << name;
  }
  EXPECT_EQ(router.unknown_model_requests(), 0u);

  const std::string text = router.StatsString();
  EXPECT_NE(text.find("model 'granite' (granite, 2 task(s))"),
            std::string::npos);
  EXPECT_NE(text.find("model 'ithemal_plus' (ithemal, 2 task(s))"),
            std::string::npos);
  EXPECT_NE(text.find("task 0:"), std::string::npos);
  EXPECT_NE(text.find("task 1:"), std::string::npos);
}

TEST_F(ModelRouterTest, ShutdownStopsAllModels) {
  RouterSetup setup;
  setup.models.push_back({"a", MakeGranite(1, 1)});
  setup.models.push_back({"b", MakeGranite(1, 2)});
  ModelRouter router(std::move(setup));
  EXPECT_TRUE(router.Submit("a", &blocks_[0], 0).has_value());
  router.Shutdown();
  EXPECT_FALSE(router.Submit("a", &blocks_[0], 0).has_value());
  EXPECT_FALSE(router.Submit("b", &blocks_[0], 0).has_value());
  // Unknown-name traffic after shutdown still counts as unknown, not as
  // a crash.
  EXPECT_FALSE(router.Submit("c", &blocks_[0], 0).has_value());
  EXPECT_EQ(router.unknown_model_requests(), 1u);
}

TEST_F(ModelRouterTest, CachedServingSharesTheModelCache) {
  // Ithemal gets the same cached serving path as GRANITE through the
  // unified interface: repeated blocks hit the model's prediction cache.
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{200};
  config.prediction_cache_capacity = 64;
  RouterSetup setup{.server_config = config};
  setup.models.push_back({"ithemal_plus", MakeIthemalPlus(1)});
  ModelRouter router(std::move(setup));

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      router.Submit("ithemal_plus", &blocks_[i], 0).value().get();
    }
  }
  EXPECT_GT(router.Model("ithemal_plus").prediction_cache_hits(), 0u);
  EXPECT_GT(router.Stats("ithemal_plus").cache_hit_rate, 0.0);
}

TEST_F(ModelRouterTest, RefusedSetupsThrowNamingTheirCause) {
  const auto two_routes = [] {
    RouterSetup setup;
    setup.models.push_back({"a", MakeGranite(1, 1)});
    setup.models.push_back({"b", MakeGranite(1, 2)});
    return setup;
  };
  const auto with_splits = [&](std::vector<SplitRoute> splits) {
    RouterSetup setup = two_routes();
    setup.splits = std::move(splits);
    return setup;
  };
  struct Case {
    /** A substring of the refusal's what(). */
    std::string message;
    std::function<RouterSetup()> make;
  };
  const std::vector<Case> cases = {
      {"duplicate model route name 'a'",
       [&] {
         RouterSetup setup = two_routes();
         setup.models.push_back({"a", MakeGranite(1, 3)});
         return setup;
       }},
      {"duplicate split name 'mix'",
       [&] { return with_splits({{"mix", "a", "b"}, {"mix", "b", "a"}}); }},
      {"split name 'b' collides with a model route",
       [&] { return with_splits({{"b", "a", "b"}}); }},
      {"split 'mix' arm 'nosuch' is not a model route",
       [&] { return with_splits({{"mix", "a", "nosuch"}}); }},
      {"split 'mix' arm 'nosuch' is not a model route",
       [&] { return with_splits({{"mix", "nosuch", "b"}}); }},
      {"split 'mix' weight must be in [0, 1], got 1.5",
       [&] { return with_splits({{"mix", "a", "b", 1.5}}); }},
      {"split 'mix' weight must be in [0, 1], got -0.25",
       [&] { return with_splits({{"mix", "a", "b", -0.25}}); }},
      {"split 'mix' weight must be in [0, 1], got nan",
       [&] {
         return with_splits({{"mix", "a", "b",
                              std::numeric_limits<double>::quiet_NaN()}});
       }},
      {"shadow min_comparisons of route 'a' must be at least 1",
       [&] {
         RouterSetup setup;
         ShadowConfig shadow;
         shadow.min_comparisons = 0;
         setup.models.push_back(
             {"a", MakeGranite(1, 1), MakeGranite(1, 2), shadow});
         return setup;
       }},
      {"shadow candidate has 1 task head(s), route 'two' has 2",
       [&] {
         RouterSetup setup;
         setup.models.push_back({"two", MakeGranite(2, 1), MakeGranite(1, 2)});
         return setup;
       }},
      {"model route 'a' has no model",
       [&] {
         RouterSetup setup;
         setup.models.push_back({"a", nullptr});
         return setup;
       }},
  };
  for (const Case& refused : cases) {
    try {
      ModelRouter router(refused.make());
      ADD_FAILURE() << "accepted a setup that should fail with: "
                    << refused.message;
    } catch (const RouterSetupError& error) {
      EXPECT_NE(std::string(error.what()).find(refused.message),
                std::string::npos)
          << "what(): " << error.what();
    }
  }
}

}  // namespace
}  // namespace granite::serve
