/**
 * @file
 * Long-lived batched inference server, sharded per worker.
 *
 * The serving layer of the ROADMAP north star: clients submit single
 * basic-block throughput queries from any number of threads and get a
 * future back; the server coalesces pending requests into batches —
 * flushing on max-batch-size or on a deadline relative to the oldest
 * pending request, whichever comes first, and at once for a SubmitMany
 * group, which is already a batch — and drains each batch through
 * ThroughputPredictor::PredictBatchAllTasks on dedicated worker threads.
 * The server is model-agnostic: it hosts any model::ThroughputPredictor
 * (GRANITE, Ithemal, Ithemal+), typically one loaded from a checkpoint
 * bundle (model::LoadModel). Mixed tasks (microarchitectures) coalesce
 * into the same batch because every task head is evaluated by the one
 * forward pass, and identical blocks are deduplicated by canonical
 * fingerprint inside the model (and served from its LRU prediction cache
 * when enabled).
 *
 * Sharding: the hot path is sharded per worker. Each worker owns one
 * request queue (its own mutex and condition variables) plus its own
 * submit- and completion-side statistics, and Submit() routes a request
 * to the shard chosen by the block's canonical fingerprint — so N
 * workers contend on 1/N of the queue state, and repeated blocks always
 * land on the same shard (keeping batch-level deduplication effective).
 * The fingerprint is computed once per request and carried with it to
 * the model as its prediction-cache key.
 * There is no global lock anywhere on the submit path; Stats() assembles
 * a consistent snapshot by locking the shards in a fixed order only when
 * asked.
 *
 * Backpressure: each shard's queue is bounded and FIFO; when it is full,
 * Submit() either blocks until space frees up or rejects the request,
 * per the configured overflow policy. Rejection (and shutdown) is
 * reported as an empty optional rather than an exception.
 *
 * Encodability: Submit() runs assembly::CheckEncodable before it takes
 * the shard lock. A block the catalog cannot encode never reaches a
 * worker (whose graph encoder would abort on it); its future fails with
 * UnencodableBlockError, and it is counted as submitted, completed and
 * failed.
 */
#ifndef GRANITE_SERVE_INFERENCE_SERVER_H_
#define GRANITE_SERVE_INFERENCE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "asm/instruction.h"
#include "asm/semantics.h"
#include "base/statistics.h"
#include "model/throughput_predictor.h"

namespace granite::serve {

/** What Submit() does when the target shard's queue is full. */
enum class OverflowPolicy {
  /** Block the caller until the shard's worker drains the queue (or
   * shutdown). */
  kBlock,
  /** Reject immediately: Submit() returns an empty optional. */
  kReject,
};

/**
 * The exception an unencodable request's future throws from get(): its
 * block has a mnemonic, an operand count or a written operand kind (an
 * immediate in `ADD 5, RAX`) that assembly::CheckEncodable refuses, so
 * no worker ever saw it.
 */
class UnencodableBlockError : public std::runtime_error {
 public:
  explicit UnencodableBlockError(const assembly::Unencodable& unencodable)
      : std::runtime_error("cannot encode block: " + unencodable.message),
        reason_(unencodable.reason) {}

  /** Why the catalog refused the block. */
  assembly::UnencodableReason reason() const { return reason_; }

 private:
  assembly::UnencodableReason reason_;
};

/** Configuration of an InferenceServer. */
struct InferenceServerConfig {
  /** Request queue + statistics shards; requests are partitioned across
   * shards by block fingerprint. */
  int num_workers = 1;
  /** A shard flushes a batch as soon as this many requests are pending
   * in its queue. */
  int max_batch_size = 32;
  /**
   * A batch of Submit() requests also flushes once the oldest pending
   * request of its shard has waited this long (the batching window).
   * Zero serves every request immediately, degenerating to unbatched
   * (batch-size-1-ish) serving under light load. A SubmitMany() group
   * never waits for the window.
   */
  std::chrono::microseconds batch_window{2000};
  /** Bound on the number of queued (not yet draining) requests, per
   * shard — total queued capacity is num_workers * queue_capacity. */
  std::size_t queue_capacity = 1024;
  OverflowPolicy overflow_policy = OverflowPolicy::kBlock;
  /**
   * When positive, EnablePredictionCache(capacity) is called on the
   * served model at construction; 0 leaves the model's cache setting
   * untouched.
   */
  std::size_t prediction_cache_capacity = 0;
};

/** Latency/volume breakdown of one task head (microarchitecture). */
struct TaskStats {
  /** Requests answered for this task head (subset of completed). */
  std::uint64_t completed = 0;
  /** Request latency (enqueue to answer) in microseconds. */
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
};

/** A point-in-time snapshot of the server's live statistics, aggregated
 * over all shards. submitted == completed + in-flight (rejected requests
 * were never admitted). */
struct ServerStats {
  /** Worker shards serving (and counting) independently. */
  std::uint64_t num_shards = 0;
  /** Requests accepted into a shard queue, plus unencodable requests
   * (answered at once, never queued). */
  std::uint64_t submitted = 0;
  /** Requests answered by a batch or, unencodable, at submission (their
   * future is ready — with a value or, for the `failed` subset, with an
   * exception). */
  std::uint64_t completed = 0;
  /** Answered requests whose batch's forward pass threw, or whose block
   * was unencodable; their futures rethrow that exception (or throw
   * UnencodableBlockError) from get(). Subset of `completed`. */
  std::uint64_t failed = 0;
  /** Requests turned away by backpressure or shutdown. */
  std::uint64_t rejected = 0;
  /** Batches drained, split by what triggered the flush. */
  std::uint64_t batches = 0;
  std::uint64_t size_flushes = 0;
  /** Batches of fewer than max_batch_size requests flushed at once
   * because they held SubmitMany requests. */
  std::uint64_t group_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t shutdown_flushes = 0;
  /** Mean requests per drained batch. */
  double mean_batch_occupancy = 0.0;
  /** Completed requests per second of server uptime. */
  double qps = 0.0;
  /** Request latency (enqueue to answer) in microseconds, merged over
   * all shards' histograms. */
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  /** Prediction-cache hit rate of the served model (lifetime), in
   * [0, 1]; 0 when the cache is disabled or untouched. */
  double cache_hit_rate = 0.0;
  /** Per-task-head latency/volume breakdown, indexed by task. The
   * task-head `completed` counters sum to the global `completed`. */
  std::vector<TaskStats> per_task;
};

/** Human-readable multi-line rendering of a stats snapshot (requests,
 * shards, batches, latency percentiles, per-task breakdown, cache hit
 * rate). */
std::string FormatServerStats(const ServerStats& stats);

/** One entry of a SubmitMany() batch: a block and its task head. The
 * block must stay alive until the corresponding future is ready. */
struct BatchSubmitRequest {
  const assembly::BasicBlock* block = nullptr;
  int task = 0;
};

/**
 * A long-lived server answering block-throughput queries with coalesced
 * batched GNN inference over per-worker shards.
 *
 * Thread-safety: all public methods are safe to call from any number of
 * threads concurrently. Submit() touches exactly one shard's
 * lock; Stats()/StatsString() lock shards in a fixed order; Shutdown()
 * is idempotent and serializes concurrent callers.
 */
class InferenceServer {
 public:
  /**
   * Starts config.num_workers queue/stats shards, each drained by one
   * worker thread.
   * @param model The served model; must outlive the server, and its
   *   parameter values must not change while the server runs (forward
   *   passes read them with no lock held). The server mutates it only
   *   through EnablePredictionCache(), when configured. New weights
   *   reach traffic through a new server built on the reloaded model.
   */
  InferenceServer(model::ThroughputPredictor* model,
                  const InferenceServerConfig& config);

  /** Shuts down (draining queued requests) and joins the workers. */
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /**
   * Enqueues one prediction request for `block` on task head `task`,
   * routed to the shard owning the block's canonical fingerprint.
   * `block` must stay alive until the returned future is ready. Returns
   * an empty optional when the request is rejected: shard queue full
   * under OverflowPolicy::kReject, or the server is (or goes) shut
   * down. The future throws UnencodableBlockError from get() when the
   * catalog cannot encode `block` (the request is then never queued),
   * and rethrows the batch's exception if its forward pass threw (e.g.
   * bad_alloc). Thread-safe; locks only the target shard.
   */
  std::optional<std::future<double>> Submit(const assembly::BasicBlock* block,
                                            int task);

  /**
   * Submits a formed batch: enqueues every request, returning one
   * optional future per request, in input order. Routing, overflow
   * handling and rejection reporting are those of calling Submit() once
   * per entry in that order. Two things differ:
   * - Locking: requests are grouped by target shard and each shard's
   *   lock is taken once per call, so a scatter-gather client (e.g. the
   *   autotuner submitting a search wave) pays O(#shards) lock
   *   acquisitions instead of O(#requests).
   * - Timing: each shard's group skips the batching window. The shard's
   *   worker flushes at once, up to max_batch_size requests per batch
   *   (older Submit() requests queued ahead of the group ride along),
   *   until the group is drained; these batches count as group flushes.
   *   The window is for coalescing independent single requests, and a
   *   group is already a batch.
   * Thread-safe; locks one shard at a time.
   */
  std::vector<std::optional<std::future<double>>> SubmitMany(
      const std::vector<BatchSubmitRequest>& requests);

  /**
   * Stops accepting new requests, wakes blocked producers (their
   * submissions are rejected), drains every queued request, and joins
   * the workers. Idempotent; also run by the destructor. Thread-safe —
   * concurrent callers block until the server is fully down.
   */
  void Shutdown();

  /** Snapshot of the live serving statistics, merged across shards.
   * Thread-safe; the snapshot is mutually consistent (all shard locks
   * are held at once, in a fixed order). */
  ServerStats Stats() const;

  /** FormatServerStats(Stats()): the live stats as printable text.
   * Thread-safe. */
  std::string StatsString() const;

  /** The served model (e.g. for reading cache counters in tests). */
  const model::ThroughputPredictor& model() const { return *model_; }

 private:
  using Clock = std::chrono::steady_clock;

  /** One pending request. */
  struct Request {
    const assembly::BasicBlock* block;
    /** uarch::BlockFingerprint(*block), computed once at submit: it
     * picked the shard and is the prediction-cache key. */
    uint64_t key;
    int task;
    std::promise<double> promise;
    Clock::time_point enqueue_time;
  };

  /** Why a worker decided to drain a batch. */
  enum class FlushReason { kSize, kGroup, kDeadline, kShutdown };

  /**
   * One fingerprint partition of the server: its request queue and its
   * counters, drained by one worker thread. `mutex` guards every field:
   * the queue side (queue, stopping, submitted, rejected) and the
   * completion side, recorded by this shard's worker after each batch
   * (and by FailUnencodable). No thread ever holds a mutex of another
   * shard, except Stats() which locks all shards in index order.
   */
  struct Shard {
    std::mutex mutex;
    /** Signals the worker: request arrived / shutdown. */
    std::condition_variable queue_event;
    /** Signals blocked producers: queue space freed / shutdown. */
    std::condition_variable space_event;
    std::deque<Request> queue;
    /** Queued requests, counted from the front, that the worker drains
     * without waiting out the window: up to and including the last
     * request a SubmitMany call queued. Each popped request lowers it. */
    std::size_t group_pending = 0;
    bool stopping = false;
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;

    /** Completion-side counters, written by this shard's worker. */
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /** Completed requests that failed as unencodable, outside any batch
     * (subset of `failed`). */
    std::uint64_t unencodable = 0;
    std::uint64_t batches = 0;
    std::uint64_t size_flushes = 0;
    std::uint64_t group_flushes = 0;
    std::uint64_t deadline_flushes = 0;
    std::uint64_t shutdown_flushes = 0;
    /** Request latency in microseconds, 1us..100s. */
    Histogram latency_us{1.0, 1e8};
    /** Per-task-head request latency (same bucketization), indexed by
     * task; sized to the model's task count at construction. */
    std::vector<Histogram> task_latency_us;
  };

  /**
   * The overflow/enqueue step shared by Submit and SubmitMany, run with
   * `lock` held on `shard.mutex` (may wait on it under
   * OverflowPolicy::kBlock). `key` is BlockFingerprint(*block), stored
   * in the request. When it queues the request, fills `future`
   * and sets `wake` when this enqueue changed a flush condition (the
   * shard's one worker must be notified); returns false on rejection
   * (queue full under kReject, or shutting down). A pending `wake` is
   * delivered (and cleared) before any wait for space.
   */
  bool EnqueueLocked(Shard& shard, std::unique_lock<std::mutex>& lock,
                     const assembly::BasicBlock* block, uint64_t key,
                     int task, bool& wake, std::future<double>& future);

  /**
   * Answers a request for an unencodable block without queueing it: its
   * future fails with UnencodableBlockError, and it is counted as
   * submitted, completed and failed under one hold of the shard lock,
   * so no stats read sees it in flight. Returns an empty optional (counted
   * as rejected) when the shard is shutting down.
   */
  std::optional<std::future<double>> FailUnencodable(
      Shard& shard, int task, const assembly::Unencodable& unencodable);

  /** Worker thread: waits for a flush condition on its shard, drains
   * one batch at a time. Every check happens under shard.mutex inside
   * the loop. */
  void WorkerLoop(Shard& shard);

  /** Runs one coalesced batch with no lock held, records its completion
   * stats under shard.mutex, then fulfills its promises. */
  void ExecuteBatch(Shard& shard, std::vector<Request>& batch,
                    FlushReason reason);

  model::ThroughputPredictor* model_;
  InferenceServerConfig config_;
  Clock::time_point start_time_;

  /** Serializes Shutdown() callers until the workers are joined. */
  std::mutex shutdown_mutex_;
  bool stopped_ = false;  // Guarded by shutdown_mutex_.

  /** One shard per worker; sized at construction, never resized
   * (unique_ptr keeps Shard addresses stable and Shard non-movable). */
  std::vector<std::unique_ptr<Shard>> shards_;

  std::vector<std::thread> workers_;
};

}  // namespace granite::serve

#endif  // GRANITE_SERVE_INFERENCE_SERVER_H_
