#include "train/trainer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/logging.h"

namespace granite::train {
namespace {

/** Extracts the ground-truth column of one task for the [begin, end)
 * slice of the batch (labels travel inside the PreparedBatch). */
ml::Tensor TargetColumn(const dataset::PreparedBatch& batch,
                        std::size_t begin, std::size_t end,
                        uarch::Microarchitecture microarchitecture,
                        double target_scale) {
  ml::Tensor column(static_cast<int>(end - begin), 1);
  for (std::size_t i = begin; i < end; ++i) {
    column.at(static_cast<int>(i - begin), 0) = static_cast<float>(
        batch.throughputs[i][static_cast<int>(microarchitecture)] /
        target_scale);
  }
  return column;
}

}  // namespace

Trainer::Trainer(ForwardFn forward, ml::ParameterStore* parameters,
                 const TrainerConfig& config)
    : forward_(std::move(forward)),
      parameters_(parameters),
      config_(config),
      backend_(&ml::GetKernelBackend(config.kernel_backend)),
      optimizer_(config.adam) {
  GRANITE_CHECK(parameters_ != nullptr);
  GRANITE_CHECK(!config_.tasks.empty());
  GRANITE_CHECK_GT(config_.batch_size, 0);
  GRANITE_CHECK_GE(config_.num_workers, 1);
  arenas_ = std::vector<ml::TapeArena>(config_.num_workers);
  sinks_ = std::vector<ml::GradientSink>(config_.num_workers);
}

void Trainer::RunSharded(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<base::ThreadPool>(config_.num_workers);
  }
  pool_->RunShards(0, count,
                   [&](int shard, std::size_t begin, std::size_t end) {
                     const ml::TapeArenaScope scope(arenas_[shard]);
                     for (std::size_t i = begin; i < end; ++i) fn(i);
                   });
}

void Trainer::SetGraphPath(GraphForwardFn graph_forward,
                           dataset::EncodeFn encode) {
  GRANITE_CHECK(graph_forward != nullptr);
  GRANITE_CHECK(encode != nullptr);
  graph_forward_ = std::move(graph_forward);
  encode_ = std::move(encode);
}

std::vector<ml::Var> Trainer::ForwardShard(
    ml::Tape& tape, const dataset::PreparedBatch& batch,
    const dataset::PreparedBatch::Shard& shard) const {
  if (shard.has_graph) return graph_forward_(tape, shard.graph);
  const std::vector<const assembly::BasicBlock*> blocks(
      batch.blocks.begin() + static_cast<std::ptrdiff_t>(shard.begin),
      batch.blocks.begin() + static_cast<std::ptrdiff_t>(shard.end));
  return forward_(tape, blocks);
}

double Trainer::TrainStep(const dataset::PreparedBatch& batch) {
  const std::size_t batch_rows = batch.indices.size();
  const std::size_t num_shards = batch.shards.size();
  GRANITE_CHECK_GT(num_shards, 0u);
  GRANITE_CHECK_LE(num_shards, sinks_.size());

  // Phase 1 (parallel): per-shard forward/backward. Workers only read
  // parameter values and write their private tape + sink, so no
  // synchronization is needed beyond the fork/join barrier.
  std::vector<double> weighted_losses(num_shards, 0.0);
  const auto run_shard = [&](std::size_t s) {
    const dataset::PreparedBatch::Shard& shard = batch.shards[s];
    const float weight = static_cast<float>(shard.end - shard.begin) /
                         static_cast<float>(batch_rows);
    ml::Tape tape(backend_);
    tape.set_gradient_sink(&sinks_[s]);
    const std::vector<ml::Var> predictions = ForwardShard(tape, batch, shard);
    GRANITE_CHECK_GE(predictions.size(), config_.tasks.size());

    // Multi-task training updates the weights for all target
    // microarchitectures at the same time (paper §5.3); the batch loss is
    // the mean of the per-task losses.
    ml::Var shard_loss;
    for (std::size_t task = 0; task < config_.tasks.size(); ++task) {
      const ml::Var target = tape.Constant(
          TargetColumn(batch, shard.begin, shard.end, config_.tasks[task],
                       config_.target_scale));
      const ml::Var task_loss =
          ml::ComputeLoss(tape, predictions[task], target, config_.loss,
                          config_.huber_delta);
      shard_loss = task == 0 ? task_loss : tape.Add(shard_loss, task_loss);
    }
    if (config_.tasks.size() > 1) {
      shard_loss = tape.Scale(
          shard_loss, 1.0f / static_cast<float>(config_.tasks.size()));
    }
    // Weighting each shard's (per-row mean) loss by its share of the
    // batch makes the reduced gradient equal the full-batch gradient.
    if (weight != 1.0f) shard_loss = tape.Scale(shard_loss, weight);
    tape.Backward(shard_loss);
    weighted_losses[s] = tape.value(shard_loss).scalar();
  };
  RunSharded(num_shards, run_shard);

  // Phase 2 (sequential, deterministic order): reduce per-worker
  // gradients into the parameters and apply one optimizer step.
  for (std::size_t s = 0; s < num_shards; ++s) {
    sinks_[s].ReduceIntoParameters();
  }
  optimizer_.Step(*parameters_);

  double loss = 0.0;
  for (const double weighted : weighted_losses) loss += weighted;
  return loss;
}

TrainingResult Trainer::Train(const dataset::BlockSource& train_data,
                              const dataset::BlockSource& validation_data) {
  GRANITE_CHECK(!train_data.empty());
  const int num_shards = config_.num_workers;
  const dataset::EncodeFn encode = graph_forward_ ? encode_ : nullptr;

  // With prefetch, sampling + sharding + encoding of batch k+1 overlap
  // the training step on batch k; without it, the same PrepareBatch runs
  // inline, so both modes see the identical batch sequence.
  std::unique_ptr<dataset::PrefetchingBatchPipeline> pipeline;
  std::unique_ptr<dataset::BatchSampler> sampler;
  if (config_.prefetch) {
    pipeline = std::make_unique<dataset::PrefetchingBatchPipeline>(
        &train_data, static_cast<std::size_t>(config_.batch_size),
        num_shards, config_.seed, encode);
  } else {
    sampler = std::make_unique<dataset::BatchSampler>(
        train_data.size(), static_cast<std::size_t>(config_.batch_size),
        config_.seed);
  }

  TrainingResult result;
  std::vector<ml::Tensor> best_snapshot;
  double best_validation = 0.0;
  const int loss_sample_every = std::max(1, config_.num_steps / 50);

  const float initial_learning_rate = config_.adam.learning_rate;
  for (int step = 1; step <= config_.num_steps; ++step) {
    if (config_.final_learning_rate > 0.0f && config_.num_steps > 1) {
      const float progress = static_cast<float>(step - 1) /
                             static_cast<float>(config_.num_steps - 1);
      optimizer_.SetLearningRate(initial_learning_rate +
                                 progress * (config_.final_learning_rate -
                                             initial_learning_rate));
    }
    const dataset::PreparedBatch batch =
        pipeline ? pipeline->Next()
                 : dataset::PrepareBatch(train_data, sampler->NextBatch(),
                                         num_shards, encode);
    const double loss_value = TrainStep(batch);

    result.final_train_loss = loss_value;
    if (step % loss_sample_every == 0 || step == 1) {
      result.loss_history.emplace_back(step, loss_value);
    }

    if (config_.validation_every > 0 && !validation_data.empty() &&
        (step % config_.validation_every == 0 ||
         step == config_.num_steps)) {
      const double validation_mape = ValidationMape(validation_data);
      if (result.best_step < 0 || validation_mape < best_validation) {
        best_validation = validation_mape;
        result.best_step = step;
        best_snapshot = parameters_->SnapshotValues();
      }
      if (config_.verbose) {
        GRANITE_INFO("step " << step << ": train loss " << loss_value
                             << ", validation MAPE " << validation_mape);
      }
    } else if (config_.verbose && step % loss_sample_every == 0) {
      GRANITE_INFO("step " << step << ": train loss " << loss_value);
    }
  }

  if (!best_snapshot.empty()) {
    parameters_->RestoreValues(best_snapshot);
    result.best_validation_mape = best_validation;
  }
  return result;
}

std::vector<double> Trainer::Predict(const dataset::BlockSource& data,
                                     int task) const {
  GRANITE_CHECK_GE(task, 0);
  const std::size_t batch_size =
      static_cast<std::size_t>(std::max(1, config_.eval_batch_size));
  const std::size_t num_batches =
      data.empty() ? 0 : (data.size() + batch_size - 1) / batch_size;
  std::vector<double> predictions(data.size());

  // Inference batches are independent (parameters are read-only here), so
  // they shard across the shared worker pool like training batches do.
  // With the graph path enabled, each worker encodes its batch once and
  // runs the pre-encoded-graph forward, the same fast path training
  // uses, instead of re-encoding inside the block-based ForwardFn.
  const auto run_batch = [&](std::size_t b) {
    const std::size_t begin = b * batch_size;
    const std::size_t end = std::min(begin + batch_size, data.size());
    // Views pin their streaming shards until the batch is done.
    std::vector<dataset::SampleView> views;
    views.reserve(end - begin);
    std::vector<const assembly::BasicBlock*> blocks;
    blocks.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      views.push_back(data.Get(i));
      blocks.push_back(views.back().block);
    }
    ml::Tape tape(backend_, ml::GradMode::kNone);
    const std::vector<ml::Var> outputs =
        graph_forward_ ? graph_forward_(tape, encode_(blocks))
                       : forward_(tape, blocks);
    GRANITE_CHECK_LT(static_cast<std::size_t>(task), outputs.size());
    const ml::Tensor& column = tape.value(outputs[task]);
    GRANITE_CHECK_EQ(column.rows(), static_cast<int>(end - begin));
    for (int row = 0; row < column.rows(); ++row) {
      predictions[begin + static_cast<std::size_t>(row)] =
          column.at(row, 0) * config_.target_scale;
    }
  };
  RunSharded(num_batches, run_batch);
  return predictions;
}

EvaluationResult Trainer::EvaluateTask(const dataset::BlockSource& data,
                                       int task) const {
  GRANITE_CHECK_LT(static_cast<std::size_t>(task), config_.tasks.size());
  const std::vector<double> actual =
      data.Throughputs(config_.tasks[task]);
  const std::vector<double> predicted = Predict(data, task);
  return Evaluate(actual, predicted);
}

double Trainer::ValidationMape(
    const dataset::BlockSource& validation_data) const {
  double total = 0.0;
  for (std::size_t task = 0; task < config_.tasks.size(); ++task) {
    total += EvaluateTask(validation_data, static_cast<int>(task)).mape;
  }
  return total / static_cast<double>(config_.tasks.size());
}

}  // namespace granite::train
