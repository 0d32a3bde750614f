/**
 * @file
 * A fixed-size fork-join worker pool.
 *
 * The data-parallel trainer runs its per-worker tapes on it: one
 * RunShards() call per training step or evaluation pass.
 * (The inference server and the kernel backends do not use it; the
 * server runs its own shard threads, and every kernel call is
 * single-threaded.)
 *
 * One call at a time: RunShards() partitions the range into contiguous
 * shards, the calling thread runs shard 0, and worker i runs shard i.
 * The call returns once every shard has finished. A pool constructed
 * with `num_threads == 1` spawns no threads and runs everything inline.
 * Calling RunShards() while another call on the same pool
 * is in flight — from inside a shard (nested) or from a second thread
 * (concurrent) — is a GRANITE_CHECK failure, not a deadlock.
 *
 * Shards may throw: the first exception escaping any shard (the
 * caller's shard 0 included) is rethrown on the calling thread after
 * every shard of the call has finished; later ones are discarded. The
 * next call starts clean.
 */
#ifndef GRANITE_BASE_THREAD_POOL_H_
#define GRANITE_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace granite::base {

/** A fixed set of worker threads running one fork-join call at a time;
 * see the file comment for the contract. */
class ThreadPool {
 public:
  /** `fn(shard_index, shard_begin, shard_end)`. */
  using ShardFn = std::function<void(int, std::size_t, std::size_t)>;

  /**
   * @param num_threads Total concurrency including the calling thread;
   *   the pool spawns `num_threads - 1` workers. Must be >= 1.
   */
  explicit ThreadPool(int num_threads);

  /** Joins all workers. Must not run concurrently with a call. */
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /** Total concurrency (workers + the calling thread). */
  int num_threads() const { return num_threads_; }

  /**
   * Partitions [begin, end) into at most num_threads() contiguous shards
   * (PartitionRange) and runs `fn(shard_index, shard_begin, shard_end)`
   * for each, the calling thread running shard 0 and worker i shard i.
   * Returns (after all shards finish) the number of shards used, which
   * is < num_threads() when the range is shorter than the thread count.
   */
  int RunShards(std::size_t begin, std::size_t end, const ShardFn& fn);

  /**
   * Splits [0, total) into `num_shards` near-equal contiguous
   * (begin, end) ranges; the first `total % num_shards` shards are one
   * element longer. Shards beyond `total` are empty.
   */
  static std::vector<std::pair<std::size_t, std::size_t>> PartitionRange(
      std::size_t total, int num_shards);

 private:
  /** Worker `shard`'s loop: waits for each new call and runs its shard
   * of it, if the call has one. */
  void WorkerLoop(int shard);

  /** Runs shard `shard` of the current call, keeping its exception if
   * it is the call's first. */
  void RunShard(int shard);

  int num_threads_;
  std::vector<std::thread> workers_;

  /** Set while a call is in flight; catches nested and concurrent
   * calls. */
  std::atomic<bool> busy_{false};

  std::mutex mutex_;
  /** Signals workers that `generation_` moved or shutdown began. */
  std::condition_variable work_ready_;
  /** Signals the caller that `remaining_` reached zero. */
  std::condition_variable shards_done_;

  // The call in flight. The fields below are guarded by `mutex_`; the
  // job fields are written before `generation_` moves and stay fixed
  // until every worker shard has finished.
  std::uint64_t generation_ = 0;
  bool shutting_down_ = false;
  const ShardFn* fn_ = nullptr;
  std::size_t begin_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> shards_;
  /** Worker shards of the current call not yet finished. */
  int remaining_ = 0;
  /** The current call's first exception. */
  std::exception_ptr exception_;
};

}  // namespace granite::base

#endif  // GRANITE_BASE_THREAD_POOL_H_
