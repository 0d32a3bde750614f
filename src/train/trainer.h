/**
 * @file
 * Training and evaluation harness.
 *
 * The trainer is model-agnostic: GRANITE and the Ithemal baselines are
 * both driven through a ForwardFn closure returning one prediction column
 * per task, so every experiment of the evaluation section uses the same
 * training loop (Adam, configurable loss, per-step multi-task updates,
 * validation-based best-checkpoint selection; paper §4).
 */
#ifndef GRANITE_TRAIN_TRAINER_H_
#define GRANITE_TRAIN_TRAINER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "base/thread_pool.h"
#include "dataset/batch_pipeline.h"
#include "dataset/dataset.h"
#include "graph/batch.h"
#include "ml/losses.h"
#include "ml/optimizer.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "ml/tape_arena.h"
#include "train/metrics.h"

namespace granite::train {

/** Runs a model on a batch of blocks; returns one [N, 1] column per task. */
using ForwardFn = std::function<std::vector<ml::Var>(
    ml::Tape&, const std::vector<const assembly::BasicBlock*>&)>;

/** Runs a model on a pre-encoded batched graph (the fast path that lets
 * the prefetch pipeline move graph construction off the training
 * thread). Returns one [N, 1] column per task. */
using GraphForwardFn = std::function<std::vector<ml::Var>(
    ml::Tape&, const graph::BatchedGraph&)>;

/** Hyper-parameters of a training run. */
struct TrainerConfig {
  int num_steps = 1000;
  /** Paper: 100 basic blocks per batch. */
  int batch_size = 100;
  ml::LossFunction loss = ml::LossFunction::kMeanAbsolutePercentageError;
  float huber_delta = 1.0f;
  ml::AdamConfig adam;
  /**
   * When positive, the learning rate decays linearly from adam.learning_rate
   * to this floor over the run. MAPE's gradients do not shrink near the
   * optimum (they are sign-based), so a constant learning rate leaves a
   * noise floor proportional to it; decaying removes that floor.
   */
  float final_learning_rate = 0.0f;
  /**
   * Tasks trained simultaneously; entry i gives the microarchitecture
   * whose ground truth supervises forward head i. Single-task training
   * uses a one-element list.
   */
  std::vector<uarch::Microarchitecture> tasks = {
      uarch::Microarchitecture::kIvyBridge};
  /** Validate (and possibly snapshot) every this many steps; 0 disables
   * best-checkpoint selection. */
  int validation_every = 100;
  /** Batch size used for inference/evaluation passes. */
  int eval_batch_size = 100;
  /**
   * Targets are divided by this factor during training and predictions
   * multiplied by it during inference. The paper trains directly on
   * cycles-per-100-iterations values over >=6M steps; at the scaled-down
   * step counts used here, training on cycles-per-iteration values
   * (target_scale = 100) converges orders of magnitude faster while all
   * reported metrics remain on the paper's value scale.
   */
  double target_scale = 1.0;
  uint64_t seed = 123;
  /** Prints progress lines when true. */
  bool verbose = false;
  /**
   * Data-parallel worker threads. Each training batch is sharded across
   * the workers; every worker runs forward/backward on its own tape with
   * a private GradientSink, the sinks are reduced into the parameter
   * gradients, and one optimizer step is applied — the same update as
   * single-threaded training up to floating-point reduction order.
   * Evaluation batches are parallelized the same way. 1 runs everything
   * inline on the calling thread.
   */
  int num_workers = 1;
  /**
   * Builds the next batch (sampling, sharding, graph encoding) on a
   * background thread while the current step trains.
   */
  bool prefetch = false;
  /**
   * Kernel backend executing every tape the trainer creates (training
   * shards and evaluation batches). kDefault resolves to the process
   * default; kReference forces the correctness-oracle loops (used by the
   * backend-invariance tests).
   */
  ml::KernelBackendKind kernel_backend = ml::KernelBackendKind::kDefault;
};

/** Summary of a training run. */
struct TrainingResult {
  /** Sampled (step, training loss) pairs. */
  std::vector<std::pair<int, double>> loss_history;
  /** Best validation MAPE (averaged over tasks) and the step it was
   * reached; meaningful when validation ran. */
  double best_validation_mape = 0.0;
  int best_step = -1;
  double final_train_loss = 0.0;
};

/** The reusable training/evaluation loop. */
class Trainer {
 public:
  /**
   * @param forward Model forward closure.
   * @param parameters The model's parameter store (owned by the model).
   * @param config Run configuration.
   */
  Trainer(ForwardFn forward, ml::ParameterStore* parameters,
          const TrainerConfig& config);

  /**
   * Enables the pre-encoded-graph fast path: training batches are
   * encoded by `encode` — on the prefetch thread when the config's
   * `prefetch` is set — and run through `graph_forward` instead of the
   * block-based ForwardFn. Evaluation/validation batches (Predict,
   * EvaluateTask and the validation pass inside Train) take the same
   * path, encoding on the worker-pool thread that runs the batch. Both
   * closures must be thread-safe.
   */
  void SetGraphPath(GraphForwardFn graph_forward, dataset::EncodeFn encode);

  /**
   * Runs the configured number of steps on `train_data`, tracking the
   * validation MAPE on `validation_data` and restoring the best
   * checkpoint at the end (paper §4: "we use the validation split to
   * select the best checkpoint"). The sources may be streaming
   * (file-backed or lazily synthesized): with the same seed and the same
   * sample content, a streaming run is bit-identical to a materialized
   * one.
   */
  TrainingResult Train(const dataset::BlockSource& train_data,
                       const dataset::BlockSource& validation_data);

  /** Inference over a whole source for one task head. */
  std::vector<double> Predict(const dataset::BlockSource& data,
                              int task) const;

  /** Full metric suite of one task head against its ground truth. */
  EvaluationResult EvaluateTask(const dataset::BlockSource& data,
                                int task) const;

 private:
  /** Mean validation MAPE across all task heads. */
  double ValidationMape(const dataset::BlockSource& validation_data) const;

  /**
   * One data-parallel optimization step on `batch`: forward/backward per
   * shard on the shared pool (each worker accumulating into a private
   * sink), gradient reduction, optimizer step. Returns the batch
   * training loss. The batch is self-contained (blocks, labels, pins),
   * so no source access happens here.
   */
  double TrainStep(const dataset::PreparedBatch& batch);

  /** Forward pass over one shard, via the graph path when available. */
  std::vector<ml::Var> ForwardShard(
      ml::Tape& tape, const dataset::PreparedBatch& batch,
      const dataset::PreparedBatch::Shard& shard) const;

  /**
   * Runs `fn(i)` for every i in [0, count) on the trainer's shared worker
   * pool (created on first use), each pool shard taking a contiguous
   * range inside a TapeArenaScope of its own arena. One pool and one
   * arena per shard serve every Train/Predict/EvaluateTask call for the
   * lifetime of the trainer, so training steps and evaluation batches
   * reuse the same memory. The fork-join pool is single-caller, so
   * concurrent calls serialize on the pool mutex.
   */
  void RunSharded(std::size_t count,
                  const std::function<void(std::size_t)>& fn) const;

  ForwardFn forward_;
  GraphForwardFn graph_forward_;
  dataset::EncodeFn encode_;
  ml::ParameterStore* parameters_;
  TrainerConfig config_;
  /** Kernel backend for every tape this trainer records. */
  const ml::KernelBackend* backend_;
  ml::AdamOptimizer optimizer_;
  /** Shared worker pool (lazily created) and one tape arena per pool
   * shard, all guarded by pool_mutex_. */
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<base::ThreadPool> pool_;
  mutable std::vector<ml::TapeArena> arenas_;
  /** One gradient sink per pool shard, kept across training steps so
   * their buffers are allocated once (each reduce zeroes them). */
  std::vector<ml::GradientSink> sinks_;
};

}  // namespace granite::train

#endif  // GRANITE_TRAIN_TRAINER_H_
