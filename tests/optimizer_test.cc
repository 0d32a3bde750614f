/**
 * @file
 * Tests of the Adam optimizer and gradient clipping.
 */
#include <cmath>

#include "gtest/gtest.h"
#include "ml/optimizer.h"
#include "ml/tape.h"

namespace granite::ml {
namespace {

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize (p - 3)^2; Adam should converge to p = 3.
  ParameterStore store(1);
  Parameter* p = store.Create("p", 1, 1, Initializer::kZero);
  AdamConfig config;
  config.learning_rate = 0.1f;
  AdamOptimizer optimizer(config);
  for (int step = 0; step < 300; ++step) {
    Tape tape;
    const Var loss = tape.Square(
        tape.AddConstant(tape.Param(p), -3.0f));
    tape.Backward(tape.SumAll(loss));
    optimizer.Step(store);
  }
  EXPECT_NEAR(p->value.at(0, 0), 3.0f, 1e-2f);
  EXPECT_EQ(optimizer.step_count(), 300);
}

TEST(AdamTest, StepZeroesGradients) {
  ParameterStore store(2);
  Parameter* p = store.Create("p", 2, 2, Initializer::kOne);
  p->grad.Fill(1.0f);
  AdamOptimizer optimizer;
  optimizer.Step(store);
  for (std::size_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_EQ(p->grad.data()[i], 0.0f);
  }
}

TEST(AdamTest, FirstStepMovesByRoughlyLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  ParameterStore store(3);
  Parameter* p = store.Create("p", 1, 1, Initializer::kZero);
  p->grad.at(0, 0) = 123.0f;
  AdamConfig config;
  config.learning_rate = 0.5f;
  AdamOptimizer optimizer(config);
  optimizer.Step(store);
  EXPECT_NEAR(p->value.at(0, 0), -0.5f, 1e-3f);
}

TEST(ClipTest, RescalesLargeGradients) {
  ParameterStore store(4);
  Parameter* p = store.Create("p", 1, 2, Initializer::kZero);
  p->grad = Tensor(1, 2, {3.0f, 4.0f});  // norm 5
  const double pre_norm = ClipGradientsByGlobalNorm(store, 1.0);
  EXPECT_NEAR(pre_norm, 5.0, 1e-6);
  EXPECT_NEAR(p->grad.at(0, 0), 0.6f, 1e-6f);
  EXPECT_NEAR(p->grad.at(0, 1), 0.8f, 1e-6f);
}

TEST(ClipTest, LeavesSmallGradientsAlone) {
  ParameterStore store(5);
  Parameter* p = store.Create("p", 1, 2, Initializer::kZero);
  p->grad = Tensor(1, 2, {0.3f, 0.4f});
  ClipGradientsByGlobalNorm(store, 1.0);
  EXPECT_EQ(p->grad.at(0, 0), 0.3f);
  EXPECT_EQ(p->grad.at(0, 1), 0.4f);
}

TEST(ClipTest, GlobalNormSpansParameters) {
  ParameterStore store(6);
  Parameter* a = store.Create("a", 1, 1, Initializer::kZero);
  Parameter* b = store.Create("b", 1, 1, Initializer::kZero);
  a->grad.at(0, 0) = 3.0f;
  b->grad.at(0, 0) = 4.0f;
  EXPECT_NEAR(ClipGradientsByGlobalNorm(store, 10.0), 5.0, 1e-6);
}

TEST(AdamTest, ClippingIntegratedIntoStep) {
  ParameterStore store(7);
  Parameter* p = store.Create("p", 1, 1, Initializer::kZero);
  AdamConfig config;
  config.learning_rate = 1.0f;
  config.gradient_clip_norm = 0.001f;
  AdamOptimizer optimizer(config);
  p->grad.at(0, 0) = 1000.0f;
  optimizer.Step(store);
  // The update direction is preserved; Adam normalizes magnitude, so just
  // check the parameter moved in the negative gradient direction.
  EXPECT_LT(p->value.at(0, 0), 0.0f);
}

TEST(ParameterStoreTest, SnapshotRestoreRoundTrip) {
  ParameterStore store(8);
  Parameter* p = store.Create("p", 2, 2, Initializer::kGlorotUniform);
  const auto snapshot = store.SnapshotValues();
  const Tensor original = p->value;
  p->value.Fill(99.0f);
  store.RestoreValues(snapshot);
  EXPECT_TRUE(p->value == original);
}

}  // namespace
}  // namespace granite::ml
