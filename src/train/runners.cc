#include "train/runners.h"

#include <utility>

#include "base/logging.h"
#include "ithemal/tokenizer.h"
#include "model/checkpoint.h"

namespace granite::train {

ModelRunner::ModelRunner(const core::GraniteConfig& model_config,
                         const TrainerConfig& trainer_config)
    : ModelRunner(std::make_unique<core::GraniteModel>(
                      std::make_unique<graph::Vocabulary>(
                          graph::Vocabulary::CreateDefault()),
                      model_config),
                  trainer_config) {}

ModelRunner::ModelRunner(const ithemal::IthemalConfig& model_config,
                         const TrainerConfig& trainer_config)
    : ModelRunner(std::make_unique<ithemal::IthemalModel>(
                      std::make_unique<graph::Vocabulary>(
                          ithemal::CreateIthemalVocabulary()),
                      model_config),
                  trainer_config) {}

ModelRunner::ModelRunner(std::unique_ptr<model::ThroughputPredictor> model,
                         const TrainerConfig& trainer_config)
    : model_(std::move(model)) {
  GRANITE_CHECK(model_ != nullptr);
  GRANITE_CHECK_EQ(static_cast<std::size_t>(model_->num_tasks()),
                   trainer_config.tasks.size());
  model::ThroughputPredictor* raw = model_.get();
  trainer_ = std::make_unique<Trainer>(
      [raw](ml::Tape& tape,
            const std::vector<const assembly::BasicBlock*>& blocks) {
        return raw->ForwardGraphsOrBlocks(tape, &blocks, nullptr);
      },
      &model_->parameters(), trainer_config);
  if (model_->SupportsGraphEncoding()) {
    // Train through the pre-encoded-graph path so the prefetch pipeline
    // can move graph construction off the training thread.
    trainer_->SetGraphPath(
        [raw](ml::Tape& tape, const graph::BatchedGraph& batch) {
          return raw->ForwardGraphsOrBlocks(tape, nullptr, &batch);
        },
        [raw](const std::vector<const assembly::BasicBlock*>& blocks) {
          return raw->EncodeBlocks(blocks);
        });
  }
}

TrainingResult ModelRunner::Train(const dataset::BlockSource& train_data,
                                  const dataset::BlockSource& validation) {
  return trainer_->Train(train_data, validation);
}

EvaluationResult ModelRunner::Evaluate(const dataset::BlockSource& data,
                                       int task) const {
  return trainer_->EvaluateTask(data, task);
}

std::vector<double> ModelRunner::Predict(const dataset::BlockSource& data,
                                         int task) const {
  return trainer_->Predict(data, task);
}

void ModelRunner::Save(const std::string& path) const {
  model::SaveModel(*model_, path);
}

}  // namespace granite::train
