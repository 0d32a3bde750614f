/**
 * @file
 * Tests of the worker pool and its fork-join primitives.
 */
#include <atomic>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "gtest/gtest.h"

namespace granite::base {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> visited;
  pool.RunShards(0, 5, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      visited.push_back(static_cast<int>(i));
    }
  });
  // With one thread everything runs on the calling thread, in order.
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, RunShardsCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> touched(kCount);
  pool.RunShards(0, kCount, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++touched[i];
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPoolTest, RunShardsRespectsBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.RunShards(10, 20, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19.
}

TEST(ThreadPoolTest, RunShardsPartitionsContiguously) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
  const int used = pool.RunShards(0, 10, [&](int shard, std::size_t begin,
                                             std::size_t end) {
    ranges[shard] = {begin, end};
  });
  ASSERT_EQ(used, 4);
  std::size_t cursor = 0;
  for (int shard = 0; shard < used; ++shard) {
    EXPECT_EQ(ranges[shard].first, cursor);
    EXPECT_GT(ranges[shard].second, ranges[shard].first);
    cursor = ranges[shard].second;
  }
  EXPECT_EQ(cursor, 10u);
}

TEST(ThreadPoolTest, RunShardsNeverExceedsRangeLength) {
  ThreadPool pool(8);
  std::atomic<int> shards_run{0};
  const int used =
      pool.RunShards(0, 3, [&](int, std::size_t, std::size_t) {
        ++shards_run;
      });
  EXPECT_EQ(used, 3);
  EXPECT_EQ(shards_run.load(), 3);
  EXPECT_EQ(pool.RunShards(0, 0, [](int, std::size_t, std::size_t) {}), 0);
}

TEST(ThreadPoolTest, EachShardRunsOnItsOwnThread) {
  ThreadPool pool(4);
  std::vector<std::thread::id> ids(4);
  pool.RunShards(0, 4, [&](int shard, std::size_t, std::size_t) {
    ids[shard] = std::this_thread::get_id();
  });
  // The caller runs shard 0, and worker i shard i.
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) EXPECT_NE(ids[a], ids[b]);
  }
}

TEST(ThreadPoolTest, PartitionRangeBalances) {
  const auto shards = ThreadPool::PartitionRange(10, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(shards[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(shards[1], (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(shards[2], (std::pair<std::size_t, std::size_t>{6, 8}));
  EXPECT_EQ(shards[3], (std::pair<std::size_t, std::size_t>{8, 10}));
  // Shards beyond the range are empty.
  const auto sparse = ThreadPool::PartitionRange(2, 4);
  EXPECT_EQ(sparse[2].first, sparse[2].second);
  EXPECT_EQ(sparse[3].first, sparse[3].second);
}

TEST(ThreadPoolDeathTest, NestedOrConcurrentCallFailsTheCheck) {
  // One call at a time: a second call while one is in flight would
  // wait on workers that are busy with the first, so it aborts instead.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.RunShards(0, 2, [&pool](int, std::size_t, std::size_t) {
          pool.RunShards(0, 2, [](int, std::size_t, std::size_t) {});
        });
      },
      "called from inside a shard or concurrently");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.RunShards(0, 2, [&pool](int shard, std::size_t, std::size_t) {
          if (shard != 0) return;
          std::thread other([&pool] {
            pool.RunShards(0, 2, [](int, std::size_t, std::size_t) {});
          });
          other.join();
        });
      },
      "called from inside a shard or concurrently");
}

}  // namespace
}  // namespace granite::base
