/**
 * @file
 * Stress tests of the autodiff tape: deep compositions, wide fan-out,
 * repeated parameter reuse, and a randomized end-to-end gradient check
 * of a composite expression resembling one GN-block application.
 */
#include <cmath>

#include "gtest/gtest.h"
#include "base/rng.h"
#include "ml/layers.h"
#include "ml/tape.h"

namespace granite::ml {
namespace {

TEST(TapeStressTest, DeepChainOfOps) {
  // 2000 chained ops: gradient of x after n doublings is 2^n-free since
  // we alternate *2 and *0.5; final d/dx must be exactly 1.
  ParameterStore store(1);
  Parameter* p = store.Create("p", 1, 1, Initializer::kOne);
  Tape tape;
  Var v = tape.Param(p);
  for (int i = 0; i < 1000; ++i) {
    v = tape.Scale(v, 2.0f);
    v = tape.Scale(v, 0.5f);
  }
  tape.Backward(tape.SumAll(v));
  EXPECT_NEAR(p->grad.at(0, 0), 1.0f, 1e-4f);
  EXPECT_GT(tape.num_nodes(), 2000u);
}

TEST(TapeStressTest, WideFanOutAccumulates) {
  // One parameter used by 256 consumers: gradients accumulate to 256.
  ParameterStore store(2);
  Parameter* p = store.Create("p", 1, 1, Initializer::kOne);
  Tape tape;
  const Var v = tape.Param(p);
  Var total = tape.Scale(v, 1.0f);
  for (int i = 0; i < 255; ++i) total = tape.Add(total, v);
  tape.Backward(tape.SumAll(total));
  EXPECT_NEAR(p->grad.at(0, 0), 256.0f, 1e-3f);
}

TEST(TapeStressTest, RepeatedMaskedLstmStepsStayBounded) {
  ParameterStore store(3);
  LstmCell cell(&store, "lstm", 4, 4);
  Tape tape;
  LstmCell::State state = cell.InitialState(tape, 3);
  Rng rng(7);
  for (int t = 0; t < 64; ++t) {
    Tensor input(3, 4);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input.data()[i] = rng.NextUniform(-2.0f, 2.0f);
    }
    Tensor mask(3, 1);
    for (int r = 0; r < 3; ++r) mask.at(r, 0) = rng.NextBernoulli(0.7f);
    state = cell.MaskedStep(tape, tape.Constant(std::move(input)), state,
                            tape.Constant(std::move(mask)));
  }
  const Tensor& hidden = tape.value(state.hidden);
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    ASSERT_TRUE(std::isfinite(hidden.data()[i]));
    ASSERT_LE(std::abs(hidden.data()[i]), 1.0f);
  }
  // Backward through 64 steps must produce finite gradients.
  tape.Backward(tape.SumAll(tape.Square(state.hidden)));
  for (const auto& parameter : store.parameters()) {
    for (std::size_t i = 0; i < parameter->grad.size(); ++i) {
      ASSERT_TRUE(std::isfinite(parameter->grad.data()[i]))
          << parameter->name;
    }
  }
}

/** End-to-end randomized gradient check of a composite expression with
 * gather / segment-sum / concat / layer norm / MLP — the exact op mix of
 * one GN block application. */
TEST(TapeStressTest, CompositeExpressionGradCheck) {
  ParameterStore store(4);
  Parameter* table = store.Create("table", 6, 4,
                                  Initializer::kGlorotUniform);
  MlpConfig mlp_config;
  mlp_config.input_size = 8;
  mlp_config.hidden_sizes = {6};
  mlp_config.output_size = 4;
  Mlp mlp(&store, "mlp", mlp_config);

  const std::vector<int> gather_indices = {0, 2, 4, 2, 5, 1};
  const std::vector<int> segments = {0, 1, 0, 2, 1, 2};

  const auto build = [&](Tape& tape) {
    const Var rows = tape.GatherRows(tape.Param(table), gather_indices);
    const Var summed = tape.SegmentSum(rows, segments, 3);
    const Var expanded = tape.GatherRows(summed, {0, 1, 2, 0, 1, 2});
    const Var features = tape.ConcatCols({rows, expanded});
    const Var updated = mlp.Apply(tape, features);
    return tape.MeanAll(tape.Square(tape.Add(updated, rows)));
  };

  for (const auto& parameter : store.parameters()) {
    parameter->grad.SetZero();
  }
  // Analytic gradients.
  {
    Tape tape;
    tape.Backward(build(tape));
  }
  // Spot-check 10 random coordinates of each parameter against central
  // differences.
  Rng rng(99);
  for (const auto& parameter : store.parameters()) {
    const Tensor analytic = parameter->grad;
    for (int check = 0; check < 10; ++check) {
      const std::size_t index = rng.NextBounded(parameter->value.size());
      const float saved = parameter->value.data()[index];
      const float step = 1e-2f;
      parameter->value.data()[index] = saved + step;
      double plus;
      {
        Tape tape;
        plus = tape.value(build(tape)).scalar();
      }
      parameter->value.data()[index] = saved - step;
      double minus;
      {
        Tape tape;
        minus = tape.value(build(tape)).scalar();
      }
      parameter->value.data()[index] = saved;
      const double numeric = (plus - minus) / (2.0 * step);
      const double reference = std::max(
          {1.0, std::abs(numeric),
           std::abs(static_cast<double>(analytic.data()[index]))});
      EXPECT_NEAR(analytic.data()[index], numeric, 5e-2 * reference)
          << parameter->name << "[" << index << "]";
    }
  }
}

TEST(TapeStressTest, LargeBatchSegmentSumMatchesManualSum) {
  Rng rng(123);
  Tensor rows(500, 8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows.data()[i] = rng.NextUniform(-1.0f, 1.0f);
  }
  std::vector<int> segments(500);
  for (int i = 0; i < 500; ++i) {
    segments[i] = static_cast<int>(rng.NextBounded(50));
  }
  Tape tape;
  const Tensor& summed =
      tape.value(tape.SegmentSum(tape.Constant(rows), segments, 50));
  // Manual accumulation.
  Tensor expected(50, 8);
  for (int r = 0; r < 500; ++r) {
    for (int c = 0; c < 8; ++c) {
      expected.at(segments[r], c) += rows.at(r, c);
    }
  }
  EXPECT_TRUE(summed.AllClose(expected, 1e-4f));
}

}  // namespace
}  // namespace granite::ml
