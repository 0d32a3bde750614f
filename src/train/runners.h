/**
 * @file
 * Self-contained model runner bundling a model, its vocabulary and a
 * Trainer. This is the top-level convenience object used by the examples,
 * the benchmark binaries and granite_cli: construct (from a config or
 * from a checkpoint-loaded predictor), Train(), Evaluate(), SaveModel().
 *
 * The runner is model-agnostic: it drives any model::ThroughputPredictor
 * through the unified interface, wiring the pre-encoded-graph fast path
 * automatically for models that support it. Overload resolution on the
 * config type picks the model family.
 */
#ifndef GRANITE_TRAIN_RUNNERS_H_
#define GRANITE_TRAIN_RUNNERS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/granite_model.h"
#include "ithemal/ithemal_model.h"
#include "model/throughput_predictor.h"
#include "train/trainer.h"

namespace granite::train {

/** Model + vocabulary + trainer bundle over the unified interface. */
class ModelRunner {
 public:
  /**
   * Builds a GRANITE model (over the default vocabulary) and its
   * trainer. model_config.num_tasks must equal
   * trainer_config.tasks.size().
   */
  ModelRunner(const core::GraniteConfig& model_config,
              const TrainerConfig& trainer_config);

  /** Builds an Ithemal/Ithemal+ model (over the Ithemal vocabulary). */
  ModelRunner(const ithemal::IthemalConfig& model_config,
              const TrainerConfig& trainer_config);

  /**
   * Wraps an existing predictor — typically model::LoadModel() output —
   * for evaluation, prediction or continued training. The predictor must
   * have trainer_config.tasks.size() task heads.
   */
  ModelRunner(std::unique_ptr<model::ThroughputPredictor> model,
              const TrainerConfig& trainer_config);

  /** Trains on `train_data`, selecting checkpoints on `validation`.
   * Sources may be streaming (see dataset::BlockSource): same seed +
   * same sample content ⇒ bit-identical trained parameters. */
  TrainingResult Train(const dataset::BlockSource& train_data,
                       const dataset::BlockSource& validation);

  /** Evaluates one task head against its microarchitecture labels. */
  EvaluationResult Evaluate(const dataset::BlockSource& data,
                            int task) const;

  /** Whole-dataset inference for one task. */
  std::vector<double> Predict(const dataset::BlockSource& data,
                              int task) const;

  /** Writes the model as a self-describing checkpoint bundle
   * (model::SaveModel). */
  void Save(const std::string& path) const;

  model::ThroughputPredictor& model() { return *model_; }
  const model::ThroughputPredictor& model() const { return *model_; }
  Trainer& trainer() { return *trainer_; }

 private:
  std::unique_ptr<model::ThroughputPredictor> model_;
  std::unique_ptr<Trainer> trainer_;
};

}  // namespace granite::train

#endif  // GRANITE_TRAIN_RUNNERS_H_
