/**
 * @file
 * End-to-end backend invariance, parameterized over every kernel backend
 * this build registered (the optimized backend, once per ISA copy): the
 * GRANITE model must produce the same forward values, the same parameter
 * gradients, and (to floating-point reassociation tolerance) the same
 * training trajectory on each backend as on the reference backend.
 */
#include <cmath>
#include <string>
#include <vector>

#include "backends_under_test.h"
#include "core/granite_model.h"
#include "dataset/dataset.h"
#include "gtest/gtest.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/losses.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "train/trainer.h"

namespace granite {
namespace {

dataset::Dataset TinyDataset(std::size_t num_blocks, uint64_t seed = 5) {
  dataset::SynthesisConfig config;
  config.num_blocks = num_blocks;
  config.seed = seed;
  config.generator.max_instructions = 6;
  return dataset::SynthesizeDataset(config);
}

core::GraniteConfig TinyGraniteConfig(ml::KernelBackendKind backend) {
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(8);
  config.message_passing_iterations = 2;
  config.kernel_backend = backend;
  return config;
}

train::TrainerConfig FastConfig(int steps, ml::KernelBackendKind backend) {
  train::TrainerConfig config;
  config.num_steps = steps;
  config.batch_size = 8;
  config.adam.learning_rate = 0.02f;
  config.target_scale = 100.0;
  config.validation_every = 0;
  config.seed = 17;
  config.kernel_backend = backend;
  return config;
}

train::ForwardFn GraniteForward(core::GraniteModel& model) {
  return [&model](ml::Tape& tape,
                  const std::vector<const assembly::BasicBlock*>& blocks) {
    return model.Forward(tape, blocks);
  };
}

/** Runs one forward/backward pass of a fresh tiny model on `backend` and
 * returns (forward column, all parameter gradients flattened). */
std::pair<std::vector<float>, std::vector<float>> ForwardBackwardTrace(
    ml::KernelBackendKind backend, const dataset::Dataset& data) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(backend));
  std::vector<const assembly::BasicBlock*> blocks;
  for (std::size_t i = 0; i < data.size(); ++i) {
    blocks.push_back(&data[i].block);
  }

  ml::Tape tape(&ml::GetKernelBackend(backend));
  const std::vector<ml::Var> predictions = model.Forward(tape, blocks);
  ml::Tensor targets(static_cast<int>(blocks.size()), 1);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    targets.at(static_cast<int>(i), 0) = static_cast<float>(
        data[i].throughput[static_cast<int>(
            uarch::Microarchitecture::kIvyBridge)] /
        100.0);
  }
  const ml::Var loss =
      ml::ComputeLoss(tape, predictions[0], tape.Constant(targets),
                      ml::LossFunction::kMeanSquaredError, 1.0f);
  tape.Backward(loss);

  std::pair<std::vector<float>, std::vector<float>> trace;
  const ml::Tensor& column = tape.value(predictions[0]);
  for (std::size_t i = 0; i < column.size(); ++i) {
    trace.first.push_back(column.data()[i]);
  }
  for (const auto& parameter : model.parameters().parameters()) {
    for (std::size_t i = 0; i < parameter->grad.size(); ++i) {
      trace.second.push_back(parameter->grad.data()[i]);
    }
  }
  return trace;
}

/** Models and trainers resolve their backend by kind, so a pinned ISA
 * copy runs as the process default for the duration of a test. */
class BackendInvarianceTest
    : public ::testing::TestWithParam<ml::BackendUnderTest> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !ml::DispatchesAvx2Copy()) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
    ml::SetDefaultKernelBackend(GetParam().pinned);
    ASSERT_EQ(&ml::GetKernelBackend(kind()), &GetParam().backend());
  }
  void TearDown() override { ml::SetDefaultKernelBackend(nullptr); }

  ml::KernelBackendKind kind() const { return GetParam().kind; }
};

TEST_P(BackendInvarianceTest, ForwardAndGradientsMatchReference) {
  const dataset::Dataset data = TinyDataset(12);
  const auto [ref_forward, ref_grads] =
      ForwardBackwardTrace(ml::KernelBackendKind::kReference, data);
  const auto [opt_forward, opt_grads] = ForwardBackwardTrace(kind(), data);

  ASSERT_EQ(ref_forward.size(), opt_forward.size());
  for (std::size_t i = 0; i < ref_forward.size(); ++i) {
    const float scale = std::max(
        {1.0f, std::abs(ref_forward[i]), std::abs(opt_forward[i])});
    EXPECT_NEAR(ref_forward[i], opt_forward[i], 1e-4f * scale)
        << "forward element " << i;
  }
  ASSERT_EQ(ref_grads.size(), opt_grads.size());
  for (std::size_t i = 0; i < ref_grads.size(); ++i) {
    const float scale =
        std::max({1.0f, std::abs(ref_grads[i]), std::abs(opt_grads[i])});
    EXPECT_NEAR(ref_grads[i], opt_grads[i], 2e-4f * scale)
        << "gradient element " << i;
  }
}

/** Trains a fresh tiny model on `backend` and returns its final loss and
 * test-set predictions. */
std::pair<double, std::vector<double>> TrainOnBackend(
    ml::KernelBackendKind backend, const dataset::Dataset& train,
    const dataset::Dataset& test, int steps) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(backend));
  train::Trainer trainer(GraniteForward(model), &model.parameters(),
                         FastConfig(steps, backend));
  const train::TrainingResult result = trainer.Train(train, dataset::Dataset());
  return {result.final_train_loss, trainer.Predict(test, 0)};
}

TEST_P(BackendInvarianceTest, TrainingIsBackendInvariant) {
  const dataset::Dataset train = TinyDataset(24, 11);
  const dataset::Dataset test = TinyDataset(8, 13);
  const int steps = 30;
  const auto [ref_loss, ref_predictions] =
      TrainOnBackend(ml::KernelBackendKind::kReference, train, test, steps);
  const auto [opt_loss, opt_predictions] =
      TrainOnBackend(kind(), train, test, steps);

  // Identical seeds + identical batch sequence: the two runs may diverge
  // only through floating-point reassociation inside the kernels. Over a
  // short run that stays within a loose relative tolerance.
  EXPECT_NEAR(ref_loss, opt_loss,
              1e-2 * std::max({1.0, std::abs(ref_loss), std::abs(opt_loss)}));
  ASSERT_EQ(ref_predictions.size(), opt_predictions.size());
  for (std::size_t i = 0; i < ref_predictions.size(); ++i) {
    const double scale = std::max({1.0, std::abs(ref_predictions[i]),
                                   std::abs(opt_predictions[i])});
    EXPECT_NEAR(ref_predictions[i], opt_predictions[i], 2e-2 * scale)
        << "prediction " << i;
  }
}

TEST_P(BackendInvarianceTest, TrainerResolvesConfiguredBackend) {
  const dataset::Dataset train = TinyDataset(8);
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(kind()));
  train::Trainer trainer(GraniteForward(model), &model.parameters(),
                         FastConfig(2, kind()));
  // Smoke: a trainer configured for this backend trains and predicts.
  trainer.Train(train, dataset::Dataset());
  EXPECT_EQ(trainer.Predict(train, 0).size(), train.size());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendInvarianceTest,
                         ::testing::ValuesIn(ml::BackendsUnderTest()),
                         ml::BackendUnderTestName);

}  // namespace
}  // namespace granite
