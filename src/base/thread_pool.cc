#include "base/thread_pool.h"

#include <algorithm>

#include "base/logging.h"

namespace granite::base {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  GRANITE_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads - 1);
  for (int shard = 1; shard < num_threads; ++shard) {
    workers_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int shard) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(
        lock, [&] { return shutting_down_ || generation_ != seen; });
    if (shutting_down_) return;
    // A worker may sleep through a call with no shard for it; it then
    // wakes on the latest generation, which is the only one that can be
    // in flight.
    seen = generation_;
    if (shard >= static_cast<int>(shards_.size())) continue;
    lock.unlock();
    RunShard(shard);
    lock.lock();
    if (--remaining_ == 0) shards_done_.notify_one();
  }
}

void ThreadPool::RunShard(int shard) {
  try {
    (*fn_)(shard, begin_ + shards_[shard].first,
           begin_ + shards_[shard].second);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (exception_ == nullptr) exception_ = std::current_exception();
  }
}

std::vector<std::pair<std::size_t, std::size_t>> ThreadPool::PartitionRange(
    std::size_t total, int num_shards) {
  GRANITE_CHECK_GE(num_shards, 1);
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  shards.reserve(num_shards);
  const std::size_t base = total / num_shards;
  const std::size_t remainder = total % num_shards;
  std::size_t cursor = 0;
  for (int shard = 0; shard < num_shards; ++shard) {
    const std::size_t length =
        base + (static_cast<std::size_t>(shard) < remainder ? 1 : 0);
    shards.emplace_back(cursor, cursor + length);
    cursor += length;
  }
  return shards;
}

int ThreadPool::RunShards(std::size_t begin, std::size_t end,
                          const ShardFn& fn) {
  GRANITE_CHECK_GE(end, begin);
  GRANITE_CHECK_MSG(!busy_.exchange(true),
                    "ThreadPool::RunShards called from inside a shard or "
                    "concurrently with another call");
  const std::size_t total = end - begin;
  const int num_shards =
      static_cast<int>(std::min<std::size_t>(total, num_threads_));
  if (num_shards == 0) {
    busy_.store(false);
    return 0;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    begin_ = begin;
    shards_ = PartitionRange(total, num_shards);
    remaining_ = num_shards - 1;
    ++generation_;
  }
  if (num_shards > 1) work_ready_.notify_all();
  RunShard(0);
  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shards_done_.wait(lock, [this] { return remaining_ == 0; });
    std::swap(exception, exception_);
  }
  busy_.store(false);
  if (exception != nullptr) std::rethrow_exception(exception);
  return num_shards;
}

}  // namespace granite::base
