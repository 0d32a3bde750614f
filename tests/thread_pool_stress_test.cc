/**
 * @file
 * Torture tests for base::ThreadPool beyond the happy path: exception
 * capture and propagation through the fork-join primitives, the N=1
 * inline path, and rapid construct/destroy cycles. All synchronization
 * goes through the pool's own join points — no sleeps.
 */
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "gtest/gtest.h"

namespace granite::base {
namespace {

TEST(ThreadPoolStressTest, WorkerShardExceptionPropagatesAfterEveryShard) {
  ThreadPool pool(4);
  std::atomic<int> survivors{0};
  EXPECT_THROW(pool.RunShards(0, 16,
                              [&survivors](int, std::size_t begin,
                                           std::size_t end) {
                                for (std::size_t i = begin; i < end; ++i) {
                                  if (i == 7) {
                                    throw std::runtime_error("boom");
                                  }
                                  ++survivors;
                                }
                              }),
               std::runtime_error);
  // Index 7 is the last of shard 1 ([4, 8)), so every other index ran:
  // the exception does not cancel the other shards of the call.
  EXPECT_EQ(survivors.load(), 15);
}

TEST(ThreadPoolStressTest, OnlyTheFirstExceptionIsReported) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.RunShards(0, 8,
                              [](int, std::size_t, std::size_t) {
                                throw std::runtime_error("each shard throws");
                              }),
               std::runtime_error);
  // The pending slot was consumed: the next call is clean.
  EXPECT_NO_THROW(
      pool.RunShards(0, 8, [](int, std::size_t, std::size_t) {}));
}

TEST(ThreadPoolStressTest, CallerShardExceptionPropagatesFromRunShards) {
  ThreadPool pool(4);
  std::atomic<int> other_shards{0};
  EXPECT_THROW(
      pool.RunShards(0, 4,
                     [&](int shard, std::size_t, std::size_t) {
                       if (shard == 0) throw std::logic_error("caller");
                       ++other_shards;
                     }),
      std::logic_error);
  // The worker shards completed before the rethrow (they reference
  // stack state, so RunShards must join before propagating).
  EXPECT_EQ(other_shards.load(), 3);
}

TEST(ThreadPoolStressTest, ExceptionDoesNotPoisonSubsequentWork) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.RunShards(0, 4,
                              [](int shard, std::size_t, std::size_t) {
                                if (shard == 2) {
                                  throw std::runtime_error("once");
                                }
                              }),
               std::runtime_error);

  std::atomic<long> sum{0};
  pool.RunShards(0, 100, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolStressTest, InlinePoolRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.RunShards(0, 4, [&seen](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      seen.push_back(std::this_thread::get_id());
    }
  });
  ASSERT_EQ(seen.size(), 4u);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolStressTest, InlinePoolPropagatesExceptionsToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.RunShards(0, 4,
                              [](int, std::size_t, std::size_t) {
                                throw std::runtime_error("inline");
                              }),
               std::runtime_error);
  EXPECT_THROW(pool.RunShards(0, 1,
                              [](int, std::size_t, std::size_t) {
                                throw std::logic_error("direct");
                              }),
               std::logic_error);
}

TEST(ThreadPoolStressTest, RapidConstructDestroyCompletesAllCalls) {
  std::atomic<int> executed{0};
  constexpr int kCycles = 50;
  constexpr int kIndicesPerCycle = 32;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    ThreadPool pool(4);
    pool.RunShards(0, kIndicesPerCycle,
                   [&executed](int, std::size_t begin, std::size_t end) {
                     executed += static_cast<int>(end - begin);
                   });
  }
  EXPECT_EQ(executed.load(), kCycles * kIndicesPerCycle);
  // Pools destroyed without ever running a call shut down too.
  for (int cycle = 0; cycle < kCycles; ++cycle) ThreadPool idle(4);
}

TEST(ThreadPoolStressTest, RapidConstructDestroyWithVaryingWidths) {
  std::atomic<long> sum{0};
  for (int width = 1; width <= 8; ++width) {
    ThreadPool pool(width);
    pool.RunShards(0, 64, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 8 * 2016);  // 8 widths x sum(0..63).
}

TEST(ThreadPoolStressTest, ManySequentialCallsEachSeeTheirOwnShards) {
  // Repeated fork-joins on one pool, with shard counts that rise and
  // fall: a worker that sat out one call must still run its shard of the
  // next, and a finished call must not let the next one return early.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 6);
    std::atomic<int> count{0};
    pool.RunShards(0, n, [&](int, std::size_t begin, std::size_t end) {
      count += static_cast<int>(end - begin);
    });
    ASSERT_EQ(count.load(), static_cast<int>(n)) << "round " << round;
  }
}

}  // namespace
}  // namespace granite::base
