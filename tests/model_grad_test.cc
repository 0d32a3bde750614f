/**
 * @file
 * End-to-end gradient checks through the full models: the GRANITE
 * forward pass (embeddings -> message passing -> decoder -> loss) and
 * the Ithemal two-level LSTM, verified against central finite
 * differences on randomly selected parameter coordinates.
 */
#include <cmath>

#include "gtest/gtest.h"
#include "asm/parser.h"
#include "base/rng.h"
#include "core/granite_model.h"
#include "ithemal/ithemal_model.h"
#include "ithemal/tokenizer.h"
#include "ml/losses.h"

namespace granite {
namespace {

std::vector<assembly::BasicBlock> TestBlocks() {
  std::vector<assembly::BasicBlock> blocks;
  for (const char* text :
       {"ADD RAX, RBX\nIMUL RCX, RAX", "MOV EAX, 1\nCMOVG EAX, ECX",
        "ADD DWORD PTR [RAX + 16], EBX"}) {
    blocks.push_back(*assembly::ParseBasicBlock(text).value);
  }
  return blocks;
}

/** Spot-checks `samples` coordinates of every parameter in `store`
 * against central differences of `loss_fn`. */
template <typename LossFn>
void SpotCheckGradients(ml::ParameterStore& store, LossFn loss_fn,
                        int samples, float step, float tolerance) {
  for (const auto& parameter : store.parameters()) parameter->grad.SetZero();
  {
    ml::Tape tape;
    tape.Backward(loss_fn(tape));
  }
  Rng rng(4242);
  for (const auto& parameter : store.parameters()) {
    const ml::Tensor analytic = parameter->grad;
    for (int check = 0; check < samples; ++check) {
      const std::size_t index = rng.NextBounded(parameter->value.size());
      const float saved = parameter->value.data()[index];
      parameter->value.data()[index] = saved + step;
      double plus;
      {
        ml::Tape tape;
        plus = tape.value(loss_fn(tape)).scalar();
      }
      parameter->value.data()[index] = saved - step;
      double minus;
      {
        ml::Tape tape;
        minus = tape.value(loss_fn(tape)).scalar();
      }
      parameter->value.data()[index] = saved;
      const double numeric = (plus - minus) / (2.0 * step);
      const double reference = std::max(
          {1.0, std::abs(numeric),
           std::abs(static_cast<double>(analytic.data()[index]))});
      EXPECT_NEAR(analytic.data()[index], numeric, tolerance * reference)
          << parameter->name << "[" << index << "]";
    }
  }
}

TEST(ModelGradTest, GraniteEndToEnd) {
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(6);
  config.message_passing_iterations = 2;
  config.num_tasks = 2;
  core::GraniteModel model(&vocabulary, config);

  const std::vector<assembly::BasicBlock> blocks = TestBlocks();
  std::vector<const assembly::BasicBlock*> block_pointers;
  for (const auto& block : blocks) block_pointers.push_back(&block);
  const ml::Tensor targets(3, 1, {3.0f, 2.0f, 4.0f});

  const auto loss_fn = [&](ml::Tape& tape) {
    const auto predictions = model.Forward(tape, block_pointers);
    // Sum of both task losses exercises the shared trunk twice.
    const ml::Var target = tape.Constant(targets);
    return tape.Add(
        ml::ComputeLoss(tape, predictions[0], target,
                        ml::LossFunction::kMeanAbsolutePercentageError),
        ml::ComputeLoss(tape, predictions[1], target,
                        ml::LossFunction::kRelativeMeanSquaredError));
  };
  SpotCheckGradients(model.parameters(), loss_fn, /*samples=*/4,
                     /*step=*/2e-2f, /*tolerance=*/8e-2f);
}

TEST(ModelGradTest, IthemalEndToEnd) {
  graph::Vocabulary vocabulary = ithemal::CreateIthemalVocabulary();
  ithemal::IthemalConfig config =
      ithemal::IthemalConfig().WithEmbeddingSize(6);
  config.decoder = ithemal::DecoderKind::kMlp;
  ithemal::IthemalModel model(&vocabulary, config);

  const std::vector<assembly::BasicBlock> blocks = TestBlocks();
  std::vector<const assembly::BasicBlock*> block_pointers;
  for (const auto& block : blocks) block_pointers.push_back(&block);
  const ml::Tensor targets(3, 1, {3.0f, 2.0f, 4.0f});

  const auto loss_fn = [&](ml::Tape& tape) {
    const auto predictions = model.Forward(tape, block_pointers);
    return ml::ComputeLoss(tape, predictions[0], tape.Constant(targets),
                           ml::LossFunction::kMeanAbsolutePercentageError);
  };
  // The two-level LSTM compounds nonlinearity curvature, so the finite
  // difference is less accurate than for the GNN; use a wider band.
  SpotCheckGradients(model.parameters(), loss_fn, /*samples=*/4,
                     /*step=*/1e-2f, /*tolerance=*/1.5e-1f);
}

TEST(ModelGradTest, GraniteGradientsAreNonTrivial) {
  // At least the embedding rows of tokens appearing in the batch must
  // receive gradient mass.
  graph::Vocabulary vocabulary = graph::Vocabulary::CreateDefault();
  core::GraniteConfig config = core::GraniteConfig().WithEmbeddingSize(6);
  config.message_passing_iterations = 2;
  core::GraniteModel model(&vocabulary, config);
  const auto block = assembly::ParseBasicBlock("ADD RAX, RBX");
  for (const auto& parameter : model.parameters().parameters()) {
    parameter->grad.SetZero();
  }
  {
    ml::Tape tape;
    const auto predictions = model.Forward(tape, {&*block.value});
    tape.Backward(tape.SumAll(predictions[0]));
  }
  const ml::Parameter* table = model.parameters().Get("node_embedding/table");
  const int add_token = vocabulary.TokenIndex("ADD");
  double add_row_mass = 0.0;
  for (int c = 0; c < table->grad.cols(); ++c) {
    add_row_mass += std::abs(table->grad.at(add_token, c));
  }
  EXPECT_GT(add_row_mass, 0.0);
  // A token that never appears gets no gradient.
  const int unused_token = vocabulary.TokenIndex("VZEROUPPER");
  double unused_mass = 0.0;
  for (int c = 0; c < table->grad.cols(); ++c) {
    unused_mass += std::abs(table->grad.at(unused_token, c));
  }
  EXPECT_EQ(unused_mass, 0.0);
}

}  // namespace
}  // namespace granite
