#include "serve/inference_server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/logging.h"
#include "ml/tape_arena.h"
#include "uarch/measurement.h"

namespace granite::serve {

InferenceServer::InferenceServer(model::ThroughputPredictor* model,
                                 const InferenceServerConfig& config)
    : model_(model), config_(config), start_time_(Clock::now()) {
  GRANITE_CHECK(model != nullptr);
  GRANITE_CHECK_GE(config.num_workers, 1);
  GRANITE_CHECK_GE(config.max_batch_size, 1);
  GRANITE_CHECK_GE(config.queue_capacity, 1u);
  GRANITE_CHECK_GE(config.batch_window.count(), 0);
  if (config.prediction_cache_capacity > 0) {
    model_->EnablePredictionCache(config.prediction_cache_capacity);
  }
  shards_.reserve(config.num_workers);
  for (int i = 0; i < config.num_workers; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->task_latency_us.reserve(model_->num_tasks());
    for (int task = 0; task < model_->num_tasks(); ++task) {
      shard->task_latency_us.emplace_back(1.0, 1e8);
    }
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(shards_.size());
  for (int i = 0; i < config.num_workers; ++i) {
    Shard* shard = shards_[i].get();
    workers_.emplace_back([this, shard] { WorkerLoop(*shard); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

bool InferenceServer::EnqueueLocked(Shard& shard,
                                    std::unique_lock<std::mutex>& lock,
                                    const assembly::BasicBlock* block,
                                    uint64_t key, int task, bool& wake,
                                    std::future<double>& future) {
  for (;;) {
    if (shard.stopping) {
      ++shard.rejected;
      return false;
    }
    if (shard.queue.size() < config_.queue_capacity) break;
    if (config_.overflow_policy == OverflowPolicy::kReject) {
      ++shard.rejected;
      return false;
    }
    // Deliver the wakeup earned so far before sleeping: SubmitMany
    // defers it until its whole shard group is enqueued, and the worker
    // asleep on an empty-queue wait is the only one that frees space.
    if (wake) {
      shard.queue_event.notify_one();
      wake = false;
    }
    shard.space_event.wait(lock, [&] {
      return shard.stopping ||
             shard.queue.size() < config_.queue_capacity;
    });
  }
  Request request;
  request.block = block;
  request.key = key;
  request.task = task;
  request.enqueue_time = Clock::now();
  future = request.promise.get_future();
  shard.queue.push_back(std::move(request));
  ++shard.submitted;
  // Wake a worker only when this request changes a flush condition: the
  // queue just became non-empty (a sleeping worker must pick up this
  // request's deadline) or the batch just filled (size flush). Requests
  // landing in the middle of a window would only interrupt the worker's
  // timed wait to re-arm the identical deadline — at high request rates
  // those spurious wakeups (and their context switches) dominate the
  // cost of batched serving.
  const std::size_t queue_size = shard.queue.size();
  if (queue_size == 1 ||
      queue_size >= static_cast<std::size_t>(config_.max_batch_size)) {
    wake = true;
  }
  return true;
}

std::optional<std::future<double>> InferenceServer::Submit(
    const assembly::BasicBlock* block, int task) {
  GRANITE_CHECK(block != nullptr);
  GRANITE_CHECK(task >= 0 && task < model_->num_tasks());
  // Fingerprint routing keeps every occurrence of a block on one shard:
  // its cached prediction lives in that shard's working set and repeats
  // within a window deduplicate inside one batch. The same key is the
  // block's prediction-cache key.
  const uint64_t key = uarch::BlockFingerprint(*block);
  Shard& shard = *shards_[key % shards_.size()];
  if (const auto unencodable = assembly::CheckEncodable(*block)) {
    return FailUnencodable(shard, task, *unencodable);
  }
  bool wake = false;
  std::future<double> future;
  bool admitted;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    admitted = EnqueueLocked(shard, lock, block, key, task, wake, future);
  }
  if (wake) shard.queue_event.notify_one();
  if (!admitted) return std::nullopt;
  return future;
}

std::vector<std::optional<std::future<double>>> InferenceServer::SubmitMany(
    const std::vector<BatchSubmitRequest>& requests) {
  std::vector<std::optional<std::future<double>>> futures(requests.size());
  // Group request indices by target shard so each shard's lock is taken
  // once. Within a shard the input order is preserved, which makes the
  // whole call equivalent to Submit()-per-entry in input order (two
  // entries routed to different shards never ordered with each other
  // anyway).
  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  std::vector<uint64_t> keys(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    GRANITE_CHECK(requests[i].block != nullptr);
    GRANITE_CHECK(requests[i].task >= 0 &&
                  requests[i].task < model_->num_tasks());
    keys[i] = uarch::BlockFingerprint(*requests[i].block);
    const std::size_t s = keys[i] % shards_.size();
    if (const auto unencodable =
            assembly::CheckEncodable(*requests[i].block)) {
      futures[i] = FailUnencodable(*shards_[s], requests[i].task,
                                   *unencodable);
      continue;
    }
    by_shard[s].push_back(i);
  }
  for (std::size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      for (std::size_t i : by_shard[s]) {
        std::future<double> future;
        if (EnqueueLocked(shard, lock, requests[i].block, keys[i],
                          requests[i].task, wake, future)) {
          futures[i] = std::move(future);
          // The group is a formed batch: the worker flushes through this
          // request without waiting out the window. Admitting a group
          // request always changes the flush condition, so wake the worker.
          shard.group_pending = shard.queue.size();
          wake = true;
        }
      }
    }
    if (wake) shard.queue_event.notify_one();
  }
  return futures;
}

std::optional<std::future<double>> InferenceServer::FailUnencodable(
    Shard& shard, int task, const assembly::Unencodable& unencodable) {
  const Clock::time_point start = Clock::now();
  std::promise<double> promise;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.stopping) {
      ++shard.rejected;
      return std::nullopt;
    }
    ++shard.submitted;
    ++shard.completed;
    ++shard.failed;
    ++shard.unencodable;
    const double latency_us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            Clock::now() - start)
            .count();
    shard.latency_us.Add(latency_us);
    shard.task_latency_us[task].Add(latency_us);
  }
  promise.set_exception(
      std::make_exception_ptr(UnencodableBlockError(unencodable)));
  return promise.get_future();
}

void InferenceServer::WorkerLoop(Shard& shard) {
  // Every forward on this thread reuses one retained arena chunk.
  ml::TapeArena arena;
  const ml::TapeArenaScope arena_scope(arena);
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    // Wait for a flush condition: a full batch, a queued SubmitMany
    // group, an expired batching window, or shutdown (which drains
    // whatever is queued).
    for (;;) {
      if (shard.queue.empty()) {
        if (shard.stopping) return;
        shard.queue_event.wait(lock);
        continue;
      }
      if (shard.stopping || shard.group_pending > 0) break;
      if (shard.queue.size() >=
          static_cast<std::size_t>(config_.max_batch_size)) {
        break;
      }
      const Clock::time_point deadline =
          shard.queue.front().enqueue_time + config_.batch_window;
      if (Clock::now() >= deadline) break;
      shard.queue_event.wait_until(lock, deadline);
    }

    FlushReason reason = FlushReason::kDeadline;
    if (shard.queue.size() >=
        static_cast<std::size_t>(config_.max_batch_size)) {
      reason = FlushReason::kSize;
    } else if (shard.group_pending > 0) {
      reason = FlushReason::kGroup;
    } else if (shard.stopping) {
      reason = FlushReason::kShutdown;
    }
    const std::size_t take = std::min(
        shard.queue.size(), static_cast<std::size_t>(config_.max_batch_size));
    shard.group_pending -= std::min(shard.group_pending, take);
    std::vector<Request> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(shard.queue.front()));
      shard.queue.pop_front();
    }
    lock.unlock();
    // Freed queue space: unblock producers. The worker notifies itself
    // via the loop (it re-checks the queue after the batch), so only
    // producers need waking.
    shard.space_event.notify_all();
    ExecuteBatch(shard, batch, reason);
    lock.lock();
  }
}

void InferenceServer::ExecuteBatch(Shard& shard, std::vector<Request>& batch,
                                   FlushReason reason) {
  std::vector<const assembly::BasicBlock*> blocks;
  std::vector<uint64_t> keys;
  blocks.reserve(batch.size());
  keys.reserve(batch.size());
  for (const Request& request : batch) {
    blocks.push_back(request.block);
    keys.push_back(request.key);
  }

  std::vector<std::vector<double>> predictions;
  std::exception_ptr failure;
  try {
    predictions = model_->PredictBatchAllTasks(blocks, keys);
  } catch (...) {
    // A throwing forward pass (e.g. bad_alloc, or a rethrown kernel
    // exception from a pooled backend) fails this batch's futures
    // instead of escaping the worker thread and terminating the
    // process.
    failure = std::current_exception();
  }
  const Clock::time_point completion_time = Clock::now();
  // Stats are recorded before the promises are fulfilled so that a
  // client observing its future ready also observes its request counted.
  // The promises are fulfilled after the lock is released, so a woken
  // client that submits again does not wait on this worker.
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.completed += batch.size();
    if (failure != nullptr) shard.failed += batch.size();
    ++shard.batches;
    switch (reason) {
      case FlushReason::kSize: ++shard.size_flushes; break;
      case FlushReason::kGroup: ++shard.group_flushes; break;
      case FlushReason::kDeadline: ++shard.deadline_flushes; break;
      case FlushReason::kShutdown: ++shard.shutdown_flushes; break;
    }
    for (const Request& request : batch) {
      const double latency_us =
          std::chrono::duration_cast<
              std::chrono::duration<double, std::micro>>(
              completion_time - request.enqueue_time)
              .count();
      shard.latency_us.Add(latency_us);
      shard.task_latency_us[request.task].Add(latency_us);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (failure != nullptr) {
      batch[i].promise.set_exception(failure);
    } else {
      batch[i].promise.set_value(predictions[i][batch[i].task]);
    }
  }
}

void InferenceServer::Shutdown() {
  // Serializes concurrent Shutdown callers (e.g. an explicit call racing
  // the destructor): the loser blocks until the winner has joined the
  // workers, so returning from Shutdown always means the server is down.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (stopped_) return;  // Already shut down by a previous call.
  stopped_ = true;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->queue_event.notify_all();
    shard->space_event.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

ServerStats InferenceServer::Stats() const {
  ServerStats stats;
  stats.num_shards = shards_.size();
  const double uptime_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - start_time_)
          .count();
  // Every shard's counters are snapshotted while all shard locks are
  // held at once, so the result is mutually consistent (e.g. submitted -
  // completed is the true in-flight count). Stats() is the only
  // multi-shard locker and always locks in shard-index order, so no
  // deadlock.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  Histogram latency_us{1.0, 1e8};
  std::vector<Histogram> task_latency_us;
  std::uint64_t unencodable = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.submitted += shard->submitted;
    stats.rejected += shard->rejected;
    stats.completed += shard->completed;
    stats.failed += shard->failed;
    unencodable += shard->unencodable;
    stats.batches += shard->batches;
    stats.size_flushes += shard->size_flushes;
    stats.group_flushes += shard->group_flushes;
    stats.deadline_flushes += shard->deadline_flushes;
    stats.shutdown_flushes += shard->shutdown_flushes;
    latency_us.Merge(shard->latency_us);
    if (task_latency_us.empty()) {
      task_latency_us.resize(shard->task_latency_us.size(),
                             Histogram{1.0, 1e8});
    }
    for (std::size_t task = 0; task < shard->task_latency_us.size(); ++task) {
      task_latency_us[task].Merge(shard->task_latency_us[task]);
    }
  }
  // Every completed request but the unencodable ones went through
  // exactly one batch.
  stats.mean_batch_occupancy =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.completed - unencodable) /
                static_cast<double>(stats.batches);
  stats.qps = uptime_seconds <= 0.0
                  ? 0.0
                  : static_cast<double>(stats.completed) / uptime_seconds;
  stats.latency_mean_us = latency_us.mean();
  stats.latency_p50_us = latency_us.Percentile(50.0);
  stats.latency_p95_us = latency_us.Percentile(95.0);
  stats.latency_p99_us = latency_us.Percentile(99.0);
  stats.per_task.resize(task_latency_us.size());
  for (std::size_t task = 0; task < task_latency_us.size(); ++task) {
    const Histogram& histogram = task_latency_us[task];
    TaskStats& task_stats = stats.per_task[task];
    task_stats.completed = histogram.count();
    task_stats.latency_mean_us = histogram.mean();
    task_stats.latency_p50_us = histogram.Percentile(50.0);
    task_stats.latency_p95_us = histogram.Percentile(95.0);
    task_stats.latency_p99_us = histogram.Percentile(99.0);
  }
  const std::size_t hits = model_->prediction_cache_hits();
  const std::size_t misses = model_->prediction_cache_misses();
  stats.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  return stats;
}

std::string InferenceServer::StatsString() const {
  return FormatServerStats(Stats());
}

std::string FormatServerStats(const ServerStats& stats) {
  char line[256];
  std::string text;
  std::snprintf(line, sizeof(line),
                "shards: %llu\n",
                static_cast<unsigned long long>(stats.num_shards));
  text += line;
  std::snprintf(line, sizeof(line),
                "requests: %llu submitted, %llu completed (%llu failed), "
                "%llu rejected\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.rejected));
  text += line;
  std::snprintf(line, sizeof(line),
                "batches: %llu (%llu size-flush, %llu group-flush, "
                "%llu deadline-flush, %llu shutdown-flush), mean occupancy "
                "%.2f\n",
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.size_flushes),
                static_cast<unsigned long long>(stats.group_flushes),
                static_cast<unsigned long long>(stats.deadline_flushes),
                static_cast<unsigned long long>(stats.shutdown_flushes),
                stats.mean_batch_occupancy);
  text += line;
  std::snprintf(line, sizeof(line),
                "qps: %.0f   latency us: mean %.0f  p50 %.0f  p95 %.0f  "
                "p99 %.0f\n",
                stats.qps, stats.latency_mean_us, stats.latency_p50_us,
                stats.latency_p95_us, stats.latency_p99_us);
  text += line;
  for (std::size_t task = 0; task < stats.per_task.size(); ++task) {
    const TaskStats& task_stats = stats.per_task[task];
    std::snprintf(line, sizeof(line),
                  "task %zu: %llu completed, latency us: mean %.0f  "
                  "p50 %.0f  p95 %.0f  p99 %.0f\n",
                  task,
                  static_cast<unsigned long long>(task_stats.completed),
                  task_stats.latency_mean_us, task_stats.latency_p50_us,
                  task_stats.latency_p95_us, task_stats.latency_p99_us);
    text += line;
  }
  std::snprintf(line, sizeof(line), "cache hit rate: %.1f%%\n",
                100.0 * stats.cache_hit_rate);
  text += line;
  return text;
}

}  // namespace granite::serve
