/**
 * @file
 * Concurrency suite for serve::InferenceServer: batching-window
 * semantics (size-flush vs deadline-flush, and SubmitMany groups that
 * flush without the window), mixed-task coalescing,
 * backpressure under both overflow policies, shutdown draining,
 * coherent stats under concurrent reads, and unencodable blocks and
 * throwing forward passes failing only their own futures.
 *
 * Synchronization discipline: no sleeps-as-sync anywhere. Tests rely on
 * futures (which block until the server answers), on flush conditions
 * that are provably reachable (e.g. a 10-second window that cannot
 * expire before a size flush), and on per-block expected values that are
 * bitwise batch-composition-invariant — every per-block computation in
 * the GNN is row-independent, so a block's prediction does not depend on
 * which other blocks share its coalesced batch.
 */
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asm/parser.h"
#include "core/granite_model.h"
#include "dataset/generator.h"
#include "gtest/gtest.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "serve/inference_server.h"
#include "serve/model_router.h"

namespace granite::serve {
namespace {

using std::chrono::microseconds;

/** A 10-second window: never expires within a test, so every flush in
 * tests using it is attributable to size, a SubmitMany group or
 * shutdown. */
constexpr microseconds kNeverWindow{10'000'000};
/** A wait that ends well before kNeverWindow could expire: a future
 * ready within it was not held for the window. */
constexpr std::chrono::seconds kWellInsideTheWindow{5};

core::GraniteConfig TinyConfig(int num_tasks = 1) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.message_passing_iterations = 2;
  config.num_tasks = num_tasks;
  return config;
}

class InferenceServerTest : public ::testing::Test {
 protected:
  InferenceServerTest() : vocabulary_(graph::Vocabulary::CreateDefault()) {
    dataset::BlockGenerator generator(dataset::GeneratorConfig(), 1234);
    blocks_ = generator.GenerateMany(12);
  }

  /** Per-block single-task expectations computed one block at a time;
   * serving must reproduce them exactly from any batch composition. */
  std::vector<double> ExpectedAlone(const core::GraniteModel& model,
                                    int task) const {
    std::vector<double> expected(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      expected[i] = model.Predict({&blocks_[i]}, task)[0];
    }
    return expected;
  }

  graph::Vocabulary vocabulary_;
  std::vector<assembly::BasicBlock> blocks_;
};

/** Blocks that parse but that the catalog cannot encode: an operand
 * count ADD does not have, a mnemonic it does not know, or an immediate
 * in a written slot. */
assembly::BasicBlock ParseUnencodable(const char* text) {
  return *assembly::ParseBasicBlock(text).value;
}

/** The reason `future` fails with UnencodableBlockError, or nullopt when
 * it answers or fails otherwise. */
std::optional<assembly::UnencodableReason> UnencodableReasonOf(
    std::future<double>& future) {
  try {
    future.get();
  } catch (const UnencodableBlockError& error) {
    return error.reason();
  } catch (...) {
  }
  return std::nullopt;
}

/** The message `future` fails with, or nullopt when it answers. */
std::optional<std::string> FailureOf(std::future<double>& future) {
  try {
    future.get();
  } catch (const std::exception& error) {
    return error.what();
  }
  return std::nullopt;
}

/** A GRANITE model whose forward pass throws on any batch holding the
 * marked block, and computes like its base class otherwise. */
class ThrowingGraniteModel : public core::GraniteModel {
 public:
  using core::GraniteModel::GraniteModel;

  /** The block whose batches throw; set before serving starts. */
  const assembly::BasicBlock* poison = nullptr;

 protected:
  std::vector<std::vector<double>> ComputeBatchAllTasks(
      const std::vector<const assembly::BasicBlock*>& blocks)
      const override {
    for (const assembly::BasicBlock* block : blocks) {
      if (block == poison) throw std::runtime_error("poisoned forward pass");
    }
    return core::GraniteModel::ComputeBatchAllTasks(blocks);
  }
};

/** The counters every stats read must keep consistent: nothing is
 * completed that was not submitted, failures are completions, and the
 * per-task completions add up to the total. */
void ExpectCoherentCounters(const ServerStats& stats) {
  EXPECT_GE(stats.submitted, stats.completed);
  EXPECT_LE(stats.failed, stats.completed);
  std::uint64_t per_task = 0;
  for (const TaskStats& task_stats : stats.per_task) {
    per_task += task_stats.completed;
  }
  EXPECT_EQ(per_task, stats.completed);
}

TEST_F(InferenceServerTest, ServesASingleRequest) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.batch_window = microseconds{500};
  InferenceServer server(&model, config);
  EXPECT_EQ(server.Submit(&blocks_[0], 0).value().get(), expected[0]);
  EXPECT_EQ(server.Submit(&blocks_[1], 0).value().get(), expected[1]);
}

TEST_F(InferenceServerTest, SizeFlushFiresBeforeTheDeadline) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  std::vector<std::future<double>> futures;
  for (int i = 0; i < 4; ++i) {
    auto future = server.Submit(&blocks_[i], 0);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
  }
  // The futures can only become ready through a size flush: the window
  // is 10 s and the test would time out long before a deadline flush.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 4.0);
}

TEST_F(InferenceServerTest, SubmitManyIsBitExactWithSingleSubmits) {
  core::GraniteModel model(&vocabulary_, TinyConfig(/*num_tasks=*/2));
  const std::vector<double> expected_task0 = ExpectedAlone(model, 0);
  const std::vector<double> expected_task1 = ExpectedAlone(model, 1);
  InferenceServerConfig config;
  config.num_workers = 2;
  config.batch_window = microseconds{200};
  InferenceServer server(&model, config);

  std::vector<BatchSubmitRequest> requests;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], int(i % 2)});
  }
  std::vector<std::optional<std::future<double>>> batched =
      server.SubmitMany(requests);
  ASSERT_EQ(batched.size(), requests.size());
  // Bit-exactness versus N single Submits: per-block predictions are
  // batch-composition-invariant, so both paths must produce the exact
  // per-block-alone values.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].has_value()) << i;
    std::optional<std::future<double>> single =
        server.Submit(requests[i].block, requests[i].task);
    ASSERT_TRUE(single.has_value()) << i;
    const double expected =
        requests[i].task == 0 ? expected_task0[i] : expected_task1[i];
    EXPECT_EQ(batched[i]->get(), expected) << i;
    EXPECT_EQ(single->get(), expected) << i;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2 * requests.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(InferenceServerTest, SubmitManySizeFlushesWithoutADeadline) {
  // A full SubmitMany wave must trigger the same size flush a loop of
  // Submits would: the window never expires, so readiness proves the
  // batched enqueue path issued the worker wakeup.
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  std::vector<BatchSubmitRequest> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], 0});
  }
  std::vector<std::optional<std::future<double>>> futures =
      server.SubmitMany(requests);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(futures[i].has_value());
    EXPECT_EQ(futures[i]->get(), expected[i]);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST_F(InferenceServerTest, SubmitManyGroupDoesNotWaitForTheWindow) {
  // A group smaller than max_batch_size is already a batch: the window
  // never expires, so readiness proves the group flushed at once.
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 16;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  std::vector<BatchSubmitRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], 0});
  }
  std::vector<std::optional<std::future<double>>> futures =
      server.SubmitMany(requests);
  ASSERT_TRUE(futures[2].has_value());
  ASSERT_EQ(futures[2]->wait_for(kWellInsideTheWindow),
            std::future_status::ready)
      << "the group waited for the window";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(futures[i].has_value());
    EXPECT_EQ(futures[i]->get(), expected[i]);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.group_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 3.0);
  EXPECT_NE(FormatServerStats(stats).find("1 group-flush"),
            std::string::npos);
}

TEST_F(InferenceServerTest, SubmitQueuedAheadOfAGroupRidesInItsBatch) {
  // The lone Submit waits for a window that never expires; the group
  // queued behind it flushes the whole queue, so its answer arrives in
  // the group's batch.
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 16;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  std::optional<std::future<double>> lone = server.Submit(&blocks_[0], 0);
  ASSERT_TRUE(lone.has_value());
  std::vector<BatchSubmitRequest> requests;
  for (int i = 1; i < 4; ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], 0});
  }
  std::vector<std::optional<std::future<double>>> futures =
      server.SubmitMany(requests);
  ASSERT_EQ(lone->wait_for(kWellInsideTheWindow), std::future_status::ready)
      << "the lone Submit waited for the window";
  EXPECT_EQ(lone->get(), expected[0]);
  for (int i = 1; i < 4; ++i) {
    ASSERT_TRUE(futures[i - 1].has_value());
    EXPECT_EQ(futures[i - 1]->get(), expected[i]);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.group_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_occupancy, 4.0);
}

TEST_F(InferenceServerTest, SubmitManyLargerThanTheQueueBlocksAndDrains) {
  // One shard's share of a SubmitMany call exceeds queue_capacity under
  // kBlock: the call must wake the worker before waiting for space, or
  // the worker sleeps on an empty-queue wait and the call never returns.
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 4;
  config.batch_window = microseconds{200};
  config.queue_capacity = 8;
  config.overflow_policy = OverflowPolicy::kBlock;
  InferenceServer server(&model, config);

  std::vector<BatchSubmitRequest> requests;
  for (int r = 0; r < 40; ++r) {
    requests.push_back(BatchSubmitRequest{&blocks_[r % blocks_.size()], 0});
  }
  std::future<std::vector<std::optional<std::future<double>>>> call =
      std::async(std::launch::async,
                 [&server, &requests] { return server.SubmitMany(requests); });
  if (call.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    // Unblock the stuck call (shutdown rejects the waiting enqueue) so
    // the test fails instead of hanging.
    server.Shutdown();
    call.wait();
    FAIL() << "SubmitMany did not return within 10 s";
  }
  std::vector<std::optional<std::future<double>>> futures = call.get();
  ASSERT_EQ(futures.size(), requests.size());
  for (std::size_t r = 0; r < futures.size(); ++r) {
    ASSERT_TRUE(futures[r].has_value()) << r;
    EXPECT_EQ(futures[r]->get(), expected[r % blocks_.size()]) << r;
  }
  EXPECT_EQ(server.Stats().rejected, 0u);
  server.Shutdown();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST_F(InferenceServerTest, SubmitManyAfterShutdownRejectsEverything) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  InferenceServer server(&model, InferenceServerConfig());
  server.Shutdown();
  std::vector<BatchSubmitRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], 0});
  }
  std::vector<std::optional<std::future<double>>> futures =
      server.SubmitMany(requests);
  ASSERT_EQ(futures.size(), 3u);
  for (const std::optional<std::future<double>>& future : futures) {
    EXPECT_FALSE(future.has_value());
  }
  EXPECT_EQ(server.Stats().rejected, 3u);
}

TEST_F(InferenceServerTest, DeadlineFlushServesAPartialBatch) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 1000;  // Unreachable: only the deadline fires.
  config.batch_window = microseconds{200};
  InferenceServer server(&model, config);

  auto a = server.Submit(&blocks_[0], 0);
  auto b = server.Submit(&blocks_[1], 0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->get(), expected[0]);
  EXPECT_EQ(b->get(), expected[1]);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_GE(stats.deadline_flushes, 1u);
}

TEST_F(InferenceServerTest, MixedTasksCoalesceIntoOneForwardPass) {
  core::GraniteModel model(&vocabulary_, TinyConfig(/*num_tasks=*/2));
  const std::vector<double> expected_task0 = ExpectedAlone(model, 0);
  const std::vector<double> expected_task1 = ExpectedAlone(model, 1);
  InferenceServerConfig config;
  config.max_batch_size = 2;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  const std::size_t passes_before = model.num_forward_passes();
  auto a = server.Submit(&blocks_[0], 0);
  auto b = server.Submit(&blocks_[1], 1);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->get(), expected_task0[0]);
  EXPECT_EQ(b->get(), expected_task1[1]);
  // Both task heads were answered by the single all-tasks forward.
  EXPECT_EQ(model.num_forward_passes(), passes_before + 1);
}

TEST_F(InferenceServerTest, RepeatedBlocksAreServedFromTheCache) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = kNeverWindow;
  config.prediction_cache_capacity = 64;
  InferenceServer server(&model, config);

  // Warm the cache with one size-flushed batch of distinct blocks.
  std::vector<std::future<double>> warm;
  for (int i = 0; i < 4; ++i) warm.push_back(*server.Submit(&blocks_[i], 0));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(warm[i].get(), expected[i]);

  const std::size_t passes = model.num_forward_passes();
  std::vector<std::future<double>> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(*server.Submit(&blocks_[i], 0));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(hot[i].get(), expected[i]);
  // The second batch was a pure cache hit: no new GNN invocation.
  EXPECT_EQ(model.num_forward_passes(), passes);
  EXPECT_GT(server.Stats().cache_hit_rate, 0.0);
}

TEST_F(InferenceServerTest, ManyProducersManyWorkersServeExactValues) {
  core::GraniteModel model(&vocabulary_, TinyConfig(/*num_tasks=*/2));
  std::vector<std::vector<double>> expected = {ExpectedAlone(model, 0),
                                               ExpectedAlone(model, 1)};
  InferenceServerConfig config;
  config.num_workers = 3;
  config.max_batch_size = 8;
  config.batch_window = microseconds{100};
  config.queue_capacity = 64;
  config.overflow_policy = OverflowPolicy::kBlock;
  config.prediction_cache_capacity = 64;
  InferenceServer server(&model, config);

  constexpr int kProducers = 4;
  constexpr int kRequestsPerProducer = 50;
  // A concurrent stats reader never sees a batch's counters out of step
  // with its latency histograms.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    do {
      ExpectCoherentCounters(server.Stats());
    } while (!done.load());
  });
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<std::pair<std::size_t, int>> sent;
      std::vector<std::future<double>> futures;
      for (int r = 0; r < kRequestsPerProducer; ++r) {
        const std::size_t i = (p * 7 + r) % blocks_.size();
        const int task = (p + r) % 2;
        auto future = server.Submit(&blocks_[i], task);
        // kBlock + no shutdown during submission: never rejected.
        if (!future.has_value()) {
          ++mismatches;
          continue;
        }
        sent.emplace_back(i, task);
        futures.push_back(std::move(*future));
      }
      for (std::size_t k = 0; k < futures.size(); ++k) {
        if (futures[k].get() != expected[sent[k].second][sent[k].first]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  server.Shutdown();
  const ServerStats stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kProducers) *
                                 kRequestsPerProducer);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.mean_batch_occupancy, 1.0);
  EXPECT_GT(stats.qps, 0.0);
}

TEST_F(InferenceServerTest, RejectPolicyShedsLoadDeterministically) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 1000;
  config.batch_window = kNeverWindow;  // The worker cannot drain yet.
  config.queue_capacity = 1;
  config.overflow_policy = OverflowPolicy::kReject;
  InferenceServer server(&model, config);

  auto accepted = server.Submit(&blocks_[0], 0);
  ASSERT_TRUE(accepted.has_value());
  // The queue is full and no flush condition holds: deterministic reject.
  EXPECT_FALSE(server.Submit(&blocks_[1], 0).has_value());
  EXPECT_FALSE(server.Submit(&blocks_[2], 0).has_value());
  EXPECT_EQ(server.Stats().rejected, 2u);

  // Shutdown drains the accepted request with the correct answer.
  server.Shutdown();
  EXPECT_EQ(accepted->get(), expected[0]);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.shutdown_flushes, 1u);
}

TEST_F(InferenceServerTest, BlockPolicyBlocksAndRecoversWithoutLoss) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 1;
  config.batch_window = microseconds{0};  // Serve immediately.
  config.queue_capacity = 1;              // Every submission contends.
  config.overflow_policy = OverflowPolicy::kBlock;
  InferenceServer server(&model, config);

  // A single producer saturates the one-slot queue: most submissions
  // must block until the worker drains, and none may be lost.
  std::vector<std::future<double>> futures;
  std::vector<std::size_t> sent;
  for (int r = 0; r < 20; ++r) {
    const std::size_t i = r % blocks_.size();
    auto future = server.Submit(&blocks_[i], 0);
    ASSERT_TRUE(future.has_value());
    futures.push_back(std::move(*future));
    sent.push_back(i);
  }
  for (std::size_t k = 0; k < futures.size(); ++k) {
    EXPECT_EQ(futures[k].get(), expected[sent[k]]);
  }
  EXPECT_EQ(server.Stats().rejected, 0u);
}

TEST_F(InferenceServerTest, ShutdownDrainsInFlightRequests) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.max_batch_size = 1000;
  config.batch_window = kNeverWindow;
  InferenceServer server(&model, config);

  std::vector<std::future<double>> futures;
  std::vector<std::size_t> sent;
  for (int r = 0; r < 30; ++r) {
    const std::size_t i = r % blocks_.size();
    futures.push_back(*server.Submit(&blocks_[i], 0));
    sent.push_back(i);
  }
  // Nothing has flushed (size 30 < 1000, window 10 s); Shutdown must
  // answer every queued request before joining the workers.
  server.Shutdown();
  for (std::size_t k = 0; k < futures.size(); ++k) {
    EXPECT_EQ(futures[k].get(), expected[sent[k]]);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 30u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_GE(stats.shutdown_flushes, 1u);

  // Submissions after shutdown are rejected, not lost in a dead queue.
  EXPECT_FALSE(server.Submit(&blocks_[0], 0).has_value());
}

TEST_F(InferenceServerTest, PerTaskLatencyBreakdownSplitsCompletions) {
  core::GraniteModel model(&vocabulary_, TinyConfig(/*num_tasks=*/2));
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  InferenceServer server(&model, config);

  // 6 requests on task 0, 3 on task 1, all answered synchronously.
  for (int r = 0; r < 6; ++r) {
    server.Submit(&blocks_[r % blocks_.size()], 0).value().get();
  }
  for (int r = 0; r < 3; ++r) {
    server.Submit(&blocks_[r % blocks_.size()], 1).value().get();
  }

  const ServerStats stats = server.Stats();
  ASSERT_EQ(stats.per_task.size(), 2u);
  EXPECT_EQ(stats.per_task[0].completed, 6u);
  EXPECT_EQ(stats.per_task[1].completed, 3u);
  EXPECT_EQ(stats.per_task[0].completed + stats.per_task[1].completed,
            stats.completed);
  for (const TaskStats& task_stats : stats.per_task) {
    EXPECT_GT(task_stats.latency_mean_us, 0.0);
    EXPECT_GT(task_stats.latency_p50_us, 0.0);
    EXPECT_LE(task_stats.latency_p50_us, task_stats.latency_p95_us);
    EXPECT_LE(task_stats.latency_p95_us, task_stats.latency_p99_us);
  }

  // The breakdown is surfaced in the printable stats rendering.
  const std::string text = server.StatsString();
  EXPECT_NE(text.find("task 0:"), std::string::npos);
  EXPECT_NE(text.find("task 1:"), std::string::npos);
}

TEST_F(InferenceServerTest, ServesAnIthemalModelThroughTheInterface) {
  // The server is model-agnostic: an Ithemal+ predictor behind the same
  // API serves exact (batch-composition-invariant) values.
  graph::Vocabulary vocabulary = ithemal::CreateIthemalVocabulary();
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(8);
  config.decoder = ithemal::DecoderKind::kMlp;
  ithemal::IthemalModel model(&vocabulary, config);
  std::vector<double> expected(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    expected[i] = model.PredictBatch({&blocks_[i]}, 0)[0];
  }

  InferenceServerConfig server_config;
  server_config.max_batch_size = 4;
  server_config.batch_window = microseconds{200};
  InferenceServer server(&model, server_config);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    EXPECT_EQ(server.Submit(&blocks_[i], 0).value().get(), expected[i]);
  }
}

TEST_F(InferenceServerTest, ShardedServingMatchesUnshardedBitExactly) {
  // The acceptance property of shard routing: the same request stream
  // served by a 1-shard and a 4-shard server yields bitwise identical
  // answers (sharding moves requests between queues, never between
  // models, and per-block predictions are batch-composition-invariant).
  core::GraniteModel model(&vocabulary_, TinyConfig(/*num_tasks=*/2));
  const std::vector<std::vector<double>> expected = {
      ExpectedAlone(model, 0), ExpectedAlone(model, 1)};

  for (const int workers : {1, 4}) {
    InferenceServerConfig config;
    config.num_workers = workers;
    config.max_batch_size = 4;
    config.batch_window = microseconds{100};
    config.prediction_cache_capacity = 64;
    InferenceServer server(&model, config);

    std::vector<std::future<double>> futures;
    std::vector<std::pair<std::size_t, int>> sent;
    for (int r = 0; r < 60; ++r) {
      const std::size_t i = r % blocks_.size();
      const int task = r % 2;
      auto future = server.Submit(&blocks_[i], task);
      ASSERT_TRUE(future.has_value());
      futures.push_back(std::move(*future));
      sent.emplace_back(i, task);
    }
    for (std::size_t k = 0; k < futures.size(); ++k) {
      EXPECT_EQ(futures[k].get(), expected[sent[k].second][sent[k].first])
          << "workers=" << workers << ", request " << k;
    }
    server.Shutdown();
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.num_shards, static_cast<std::uint64_t>(workers));
    EXPECT_EQ(stats.completed, 60u);
    EXPECT_EQ(stats.submitted, stats.completed);
  }
}

TEST_F(InferenceServerTest, ThrowingForwardPassFailsOnlyItsBatch) {
  ThrowingGraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  model.poison = &blocks_[0];
  InferenceServerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 4;
  config.batch_window = kNeverWindow;  // Every batch is a size flush.
  InferenceServer server(&model, config);

  // Blocks 0-3 fill one batch, and block 0 makes its forward pass throw.
  std::vector<std::future<double>> failing;
  for (int i = 0; i < 4; ++i) failing.push_back(*server.Submit(&blocks_[i], 0));
  for (std::future<double>& future : failing) {
    EXPECT_EQ(FailureOf(future), "poisoned forward pass");
  }
  ServerStats stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.batches, 1u);

  // The one worker survives and answers the next batch exactly.
  std::vector<std::future<double>> answered;
  for (int i = 4; i < 8; ++i) {
    answered.push_back(*server.Submit(&blocks_[i], 0));
  }
  for (int i = 4; i < 8; ++i) EXPECT_EQ(answered[i - 4].get(), expected[i]);
  server.Shutdown();
  stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST_F(InferenceServerTest, UnencodableSubmitFailsItsFutureWithoutABatch) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.num_workers = 2;
  config.batch_window = microseconds{100};
  InferenceServer server(&model, config);

  const assembly::BasicBlock arity = ParseUnencodable("ADD RAX");
  const assembly::BasicBlock unknown = ParseUnencodable("FROB RAX");
  const assembly::BasicBlock form = ParseUnencodable("ADD 5, RAX");
  std::optional<std::future<double>> future = server.Submit(&arity, 0);
  ASSERT_TRUE(future.has_value());
  EXPECT_EQ(UnencodableReasonOf(*future),
            assembly::UnencodableReason::kUnsupportedArity);
  future = server.Submit(&unknown, 0);
  ASSERT_TRUE(future.has_value());
  EXPECT_EQ(UnencodableReasonOf(*future),
            assembly::UnencodableReason::kUnknownMnemonic);
  future = server.Submit(&form, 0);
  ASSERT_TRUE(future.has_value());
  EXPECT_EQ(UnencodableReasonOf(*future),
            assembly::UnencodableReason::kOperandForm);
  // Counted as answered the moment Submit returns, and no worker ran a
  // batch for any.
  ServerStats stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.mean_batch_occupancy, 0.0);

  // The server keeps serving, and a concurrent stats reader never sees
  // the counters out of step.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) ExpectCoherentCounters(server.Stats());
  });
  for (int round = 0; round < 20; ++round) {
    future = server.Submit(round % 2 == 0 ? &arity : &unknown, 0);
    ASSERT_TRUE(future.has_value());
    EXPECT_TRUE(UnencodableReasonOf(*future).has_value());
    const std::size_t i = round % blocks_.size();
    EXPECT_EQ(server.Submit(&blocks_[i], 0).value().get(), expected[i]);
  }
  done.store(true);
  reader.join();
  stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, 43u);
  EXPECT_EQ(stats.completed, 43u);
  EXPECT_EQ(stats.failed, 23u);
  EXPECT_EQ(stats.mean_batch_occupancy, 20.0 / stats.batches);

  // After shutdown an unencodable block is rejected like any other.
  server.Shutdown();
  EXPECT_FALSE(server.Submit(&arity, 0).has_value());
  EXPECT_EQ(server.Stats().rejected, 1u);
}

TEST_F(InferenceServerTest, SubmitManyFailsOnlyTheUnencodableEntries) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  const std::vector<double> expected = ExpectedAlone(model, 0);
  InferenceServerConfig config;
  config.num_workers = 2;
  config.batch_window = microseconds{200};
  InferenceServer server(&model, config);

  const assembly::BasicBlock arity = ParseUnencodable("ADD RAX");
  const assembly::BasicBlock unknown = ParseUnencodable("FROB RAX");
  // Eight good blocks with an unencodable one after every second.
  std::vector<BatchSubmitRequest> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    requests.push_back(BatchSubmitRequest{&blocks_[i], 0});
    if (i % 2 == 1) {
      requests.push_back(BatchSubmitRequest{i % 4 == 1 ? &arity : &unknown, 0});
    }
  }
  std::vector<std::optional<std::future<double>>> futures =
      server.SubmitMany(requests);
  ASSERT_EQ(futures.size(), requests.size());
  std::size_t good = 0;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    ASSERT_TRUE(futures[k].has_value()) << k;
    if (requests[k].block == &arity) {
      EXPECT_EQ(UnencodableReasonOf(*futures[k]),
                assembly::UnencodableReason::kUnsupportedArity);
    } else if (requests[k].block == &unknown) {
      EXPECT_EQ(UnencodableReasonOf(*futures[k]),
                assembly::UnencodableReason::kUnknownMnemonic);
    } else {
      EXPECT_EQ(futures[k]->get(), expected[good]) << k;
      ++good;
    }
  }
  EXPECT_EQ(good, 8u);
  server.Shutdown();
  const ServerStats stats = server.Stats();
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 4u);
}

TEST_F(InferenceServerTest, RouterPassesTheUnencodableErrorThrough) {
  RouterSetup setup;
  setup.models.push_back(
      {"granite",
       std::make_unique<core::GraniteModel>(&vocabulary_, TinyConfig())});
  ModelRouter router(std::move(setup));
  const assembly::BasicBlock arity = ParseUnencodable("ADD RAX");
  std::optional<std::future<double>> future =
      router.Submit("granite", &arity, 0);
  ASSERT_TRUE(future.has_value());
  EXPECT_EQ(UnencodableReasonOf(*future),
            assembly::UnencodableReason::kUnsupportedArity);
  const double answer = router.Submit("granite", &blocks_[0], 0).value().get();
  EXPECT_EQ(answer, router.Submit("granite", &blocks_[0], 0).value().get());
  const ServerStats stats = router.Stats("granite");
  ExpectCoherentCounters(stats);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST_F(InferenceServerTest, StatsReportCoherentLatencyPercentiles) {
  core::GraniteModel model(&vocabulary_, TinyConfig());
  InferenceServerConfig config;
  config.max_batch_size = 4;
  config.batch_window = microseconds{100};
  InferenceServer server(&model, config);
  for (int r = 0; r < 16; ++r) {
    server.Submit(&blocks_[r % blocks_.size()], 0).value().get();
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_GT(stats.latency_mean_us, 0.0);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_LE(stats.latency_p50_us, stats.latency_p95_us);
  EXPECT_LE(stats.latency_p95_us, stats.latency_p99_us);
  EXPECT_GT(stats.qps, 0.0);
}

}  // namespace
}  // namespace granite::serve
