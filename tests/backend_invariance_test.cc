/**
 * @file
 * End-to-end backend invariance, parameterized over the optimized backend
 * once per ISA copy: every kernel follows the summation order
 * kernel_backend.h states, so the GRANITE model must produce the same
 * forward values, parameter gradients, trained parameters and
 * predictions, bit for bit, on each backend as on the reference backend.
 */
#include <cstring>
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

/** Same length and the same bit pattern in every element. */
template <typename T>
void ExpectSameBits(const std::vector<T>& expected,
                    const std::vector<T>& actual, const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(std::memcmp(&expected[i], &actual[i], sizeof(T)), 0)
        << label << " element " << i << ": " << expected[i] << " vs "
        << actual[i];
  }
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

  ExpectSameBits(ref_forward, opt_forward, "forward");
  ExpectSameBits(ref_grads, opt_grads, "gradients");
}

/** What a short training run leaves behind. */
struct TrainedModel {
  double final_loss;
  /** Every parameter value, flattened in store order. */
  std::vector<float> parameters;
  /** Predictions for the test set. */
  std::vector<double> predictions;
};

/** Trains a fresh tiny model on `backend`. */
TrainedModel TrainOnBackend(ml::KernelBackendKind backend,
                            const dataset::Dataset& train,
                            const dataset::Dataset& test, int steps) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteModel model(&vocabulary, TinyGraniteConfig(backend));
  train::Trainer trainer(GraniteForward(model), &model.parameters(),
                         FastConfig(steps, backend));
  const train::TrainingResult result = trainer.Train(train, dataset::Dataset());
  TrainedModel trained{result.final_train_loss, {},
                       trainer.Predict(test, 0)};
  for (const auto& parameter : model.parameters().parameters()) {
    const float* values = parameter->value.data();
    trained.parameters.insert(trained.parameters.end(), values,
                              values + parameter->value.size());
  }
  return trained;
}

TEST_P(BackendInvarianceTest, TrainingIsBackendInvariant) {
  // Identical seeds and batch sequence, and kernels that round the same
  // way: the runs must not drift apart by a single bit.
  const dataset::Dataset train = TinyDataset(24, 11);
  const dataset::Dataset test = TinyDataset(8, 13);
  const int steps = 30;
  const TrainedModel ref =
      TrainOnBackend(ml::KernelBackendKind::kReference, train, test, steps);
  const TrainedModel opt = TrainOnBackend(kind(), train, test, steps);

  EXPECT_EQ(std::memcmp(&ref.final_loss, &opt.final_loss, sizeof(double)), 0)
      << ref.final_loss << " vs " << opt.final_loss;
  ExpectSameBits(ref.parameters, opt.parameters, "trained parameters");
  ExpectSameBits(ref.predictions, opt.predictions, "predictions");
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
