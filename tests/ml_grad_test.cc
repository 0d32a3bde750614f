/**
 * @file
 * Finite-difference gradient checks for every autodiff operation and for
 * the composed building blocks (MLP, layer norm, LSTM cell, losses), on
 * the reference backend (the oracle) and on the optimized backend.
 *
 * Strategy: build a scalar loss from the op under test, compute analytic
 * gradients via Tape::Backward, then perturb each input element by ±h and
 * compare the central difference against the analytic value.
 */
#include <cmath>
#include <functional>
#include <string>

#include "gtest/gtest.h"
#include "base/rng.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/layers.h"
#include "ml/losses.h"
#include "ml/parameter.h"
#include "ml/tape.h"

namespace granite::ml {
namespace {

/** Fills a tensor with deterministic pseudo-random values in [lo, hi]. */
Tensor RandomTensor(int rows, int cols, Rng& rng, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor tensor(rows, cols);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    tensor.data()[i] = rng.NextUniform(lo, hi);
  }
  return tensor;
}

class GradCheckTest : public ::testing::TestWithParam<KernelBackendKind> {
 protected:
  /**
   * Checks the gradient of `build` with respect to a single parameter.
   * `build` must construct a 1x1 loss from a fresh tape, reading the
   * parameter through Tape::Param.
   */
  void CheckParameterGradient(Parameter* parameter,
                              const std::function<Var(Tape&)>& build,
                              float step = 1e-2f, float tolerance = 2e-2f) {
    const KernelBackend* backend = &GetKernelBackend(GetParam());
    // Analytic gradient.
    parameter->grad.SetZero();
    {
      Tape tape(backend);
      Var loss = build(tape);
      tape.Backward(loss);
    }
    const Tensor analytic = parameter->grad;

    // Central finite differences, element by element.
    for (std::size_t i = 0; i < parameter->value.size(); ++i) {
      const float saved = parameter->value.data()[i];
      parameter->value.data()[i] = saved + step;
      double loss_plus;
      {
        Tape tape(backend);
        loss_plus = tape.value(build(tape)).scalar();
      }
      parameter->value.data()[i] = saved - step;
      double loss_minus;
      {
        Tape tape(backend);
        loss_minus = tape.value(build(tape)).scalar();
      }
      parameter->value.data()[i] = saved;
      const double numeric = (loss_plus - loss_minus) / (2.0 * step);
      const double reference =
          std::max({1.0, std::abs(numeric),
                    std::abs(static_cast<double>(analytic.data()[i]))});
      EXPECT_NEAR(analytic.data()[i], numeric, tolerance * reference)
          << backend->name() << " parameter " << parameter->name
          << " element " << i;
    }
  }

  Rng rng_{12345};
  ParameterStore store_{99};
};

TEST_P(GradCheckTest, MatMulLeft) {
  Parameter* a = store_.Create("a", 3, 4, Initializer::kGlorotUniform);
  const Tensor b_value = RandomTensor(4, 2, rng_);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.MatMul(tape.Param(a), tape.Constant(b_value)));
  });
}

TEST_P(GradCheckTest, MatMulRight) {
  Parameter* b = store_.Create("b", 4, 2, Initializer::kGlorotUniform);
  const Tensor a_value = RandomTensor(3, 4, rng_);
  CheckParameterGradient(b, [&](Tape& tape) {
    return tape.SumAll(tape.MatMul(tape.Constant(a_value), tape.Param(b)));
  });
}

TEST_P(GradCheckTest, AddSubMul) {
  Parameter* a = store_.Create("a", 2, 3, Initializer::kGlorotUniform);
  const Tensor b_value = RandomTensor(2, 3, rng_);
  CheckParameterGradient(a, [&](Tape& tape) {
    const Var pa = tape.Param(a);
    const Var b = tape.Constant(b_value);
    return tape.SumAll(tape.Mul(tape.Add(pa, b), tape.Sub(pa, b)));
  });
}

TEST_P(GradCheckTest, DivNumerator) {
  Parameter* a = store_.Create("a", 2, 2, Initializer::kGlorotUniform);
  const Tensor b_value = RandomTensor(2, 2, rng_, 1.0f, 2.0f);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Div(tape.Param(a), tape.Constant(b_value)));
  });
}

TEST_P(GradCheckTest, DivDenominator) {
  Parameter* b = store_.Create("b", 2, 2, Initializer::kGlorotUniform);
  // Keep the denominator away from zero.
  for (std::size_t i = 0; i < b->value.size(); ++i) {
    b->value.data()[i] = 1.5f + 0.2f * static_cast<float>(i);
  }
  const Tensor a_value = RandomTensor(2, 2, rng_);
  CheckParameterGradient(b, [&](Tape& tape) {
    return tape.SumAll(tape.Div(tape.Constant(a_value), tape.Param(b)));
  });
}

TEST_P(GradCheckTest, ScaleAndAddConstant) {
  Parameter* a = store_.Create("a", 2, 3, Initializer::kGlorotUniform);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.AddConstant(tape.Scale(tape.Param(a), 2.5f),
                                        -0.75f));
  });
}

TEST_P(GradCheckTest, AddRowBroadcastInput) {
  Parameter* a = store_.Create("a", 3, 4, Initializer::kGlorotUniform);
  const Tensor bias = RandomTensor(1, 4, rng_);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Square(
        tape.AddRowBroadcast(tape.Param(a), tape.Constant(bias))));
  });
}

TEST_P(GradCheckTest, AddRowBroadcastBias) {
  Parameter* bias = store_.Create("bias", 1, 4, Initializer::kGlorotUniform);
  const Tensor a_value = RandomTensor(3, 4, rng_);
  CheckParameterGradient(bias, [&](Tape& tape) {
    return tape.SumAll(tape.Square(
        tape.AddRowBroadcast(tape.Constant(a_value), tape.Param(bias))));
  });
}

TEST_P(GradCheckTest, MulColumnBroadcastBothSides) {
  Parameter* a = store_.Create("a", 3, 4, Initializer::kGlorotUniform);
  Parameter* column = store_.Create("col", 3, 1, Initializer::kGlorotUniform);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(
        tape.MulColumnBroadcast(tape.Param(a), tape.Param(column)));
  });
  CheckParameterGradient(column, [&](Tape& tape) {
    return tape.SumAll(
        tape.MulColumnBroadcast(tape.Param(a), tape.Param(column)));
  });
}

TEST_P(GradCheckTest, Relu) {
  Parameter* a = store_.Create("a", 3, 3, Initializer::kGlorotUniform);
  // Keep values away from the kink at 0 so finite differences are valid.
  for (std::size_t i = 0; i < a->value.size(); ++i) {
    if (std::abs(a->value.data()[i]) < 0.1f) a->value.data()[i] = 0.3f;
  }
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Relu(tape.Param(a)));
  });
}

TEST_P(GradCheckTest, SigmoidTanh) {
  Parameter* a = store_.Create("a", 2, 3, Initializer::kGlorotUniform);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Mul(tape.Sigmoid(tape.Param(a)),
                                tape.Tanh(tape.Param(a))));
  });
}

TEST_P(GradCheckTest, AbsAwayFromZero) {
  Parameter* a = store_.Create("a", 2, 3, Initializer::kGlorotUniform);
  for (std::size_t i = 0; i < a->value.size(); ++i) {
    if (std::abs(a->value.data()[i]) < 0.1f) a->value.data()[i] = -0.4f;
  }
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Abs(tape.Param(a)));
  });
}

TEST_P(GradCheckTest, Square) {
  Parameter* a = store_.Create("a", 2, 2, Initializer::kGlorotUniform);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Square(tape.Param(a)));
  });
}

TEST_P(GradCheckTest, HuberBothRegimes) {
  Parameter* a = store_.Create("a", 1, 4, Initializer::kZero);
  // Two values in the quadratic regime, two in the linear regime.
  a->value.at(0, 0) = 0.4f;
  a->value.at(0, 1) = -0.3f;
  a->value.at(0, 2) = 2.5f;
  a->value.at(0, 3) = -3.0f;
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.SumAll(tape.Huber(tape.Param(a), 1.0f));
  });
}

TEST_P(GradCheckTest, LayerNormAllInputs) {
  Parameter* x = store_.Create("x", 3, 5, Initializer::kGlorotUniform);
  Parameter* gain = store_.Create("gain", 1, 5, Initializer::kOne);
  Parameter* bias = store_.Create("bias", 1, 5, Initializer::kZero);
  const auto build = [&](Tape& tape) {
    return tape.SumAll(tape.Square(tape.LayerNorm(
        tape.Param(x), tape.Param(gain), tape.Param(bias))));
  };
  CheckParameterGradient(x, build, /*step=*/1e-2f, /*tolerance=*/4e-2f);
  CheckParameterGradient(gain, build);
  CheckParameterGradient(bias, build);
}

TEST_P(GradCheckTest, GatherRows) {
  Parameter* table = store_.Create("table", 5, 3,
                                   Initializer::kGlorotUniform);
  CheckParameterGradient(table, [&](Tape& tape) {
    // Repeated indices exercise gradient accumulation into a row.
    return tape.SumAll(tape.Square(
        tape.GatherRows(tape.Param(table), {0, 2, 2, 4, 0})));
  });
}

TEST_P(GradCheckTest, SegmentSum) {
  Parameter* rows = store_.Create("rows", 6, 2,
                                  Initializer::kGlorotUniform);
  CheckParameterGradient(rows, [&](Tape& tape) {
    return tape.SumAll(tape.Square(
        tape.SegmentSum(tape.Param(rows), {0, 1, 1, 2, 0, 2}, 3)));
  });
}

TEST_P(GradCheckTest, ConcatCols) {
  Parameter* a = store_.Create("a", 3, 2, Initializer::kGlorotUniform);
  Parameter* b = store_.Create("b", 3, 3, Initializer::kGlorotUniform);
  const auto build = [&](Tape& tape) {
    return tape.SumAll(tape.Square(
        tape.ConcatCols({tape.Param(a), tape.Param(b)})));
  };
  CheckParameterGradient(a, build);
  CheckParameterGradient(b, build);
}

TEST_P(GradCheckTest, MeanAll) {
  Parameter* a = store_.Create("a", 4, 4, Initializer::kGlorotUniform);
  CheckParameterGradient(a, [&](Tape& tape) {
    return tape.MeanAll(tape.Square(tape.Param(a)));
  });
}

TEST_P(GradCheckTest, ComposedMlp) {
  MlpConfig config;
  config.input_size = 4;
  config.hidden_sizes = {6};
  config.output_size = 3;
  config.layer_norm_at_input = true;
  Mlp mlp(&store_, "mlp", config);
  const Tensor input = RandomTensor(3, 4, rng_);
  for (const auto& parameter : store_.parameters()) {
    CheckParameterGradient(
        parameter.get(),
        [&](Tape& tape) {
          return tape.SumAll(
              tape.Square(mlp.Apply(tape, tape.Constant(input))));
        },
        /*step=*/1e-2f, /*tolerance=*/5e-2f);
  }
}

TEST_P(GradCheckTest, LstmCellStep) {
  LstmCell cell(&store_, "lstm", 3, 4);
  const Tensor input = RandomTensor(2, 3, rng_);
  const auto build = [&](Tape& tape) {
    LstmCell::State state = cell.InitialState(tape, 2);
    state = cell.Step(tape, tape.Constant(input), state);
    state = cell.Step(tape, tape.Constant(input), state);
    return tape.SumAll(tape.Square(state.hidden));
  };
  for (const auto& parameter : store_.parameters()) {
    CheckParameterGradient(parameter.get(), build, /*step=*/1e-2f,
                           /*tolerance=*/5e-2f);
  }
}

TEST_P(GradCheckTest, LossFunctions) {
  Parameter* prediction = store_.Create("pred", 4, 1,
                                        Initializer::kGlorotUniform);
  for (std::size_t i = 0; i < prediction->value.size(); ++i) {
    prediction->value.data()[i] = 2.0f + 0.5f * static_cast<float>(i);
  }
  Tensor target(4, 1);
  for (int i = 0; i < 4; ++i) target.at(i, 0) = 3.0f + i;
  for (const LossFunction loss :
       {LossFunction::kMeanAbsolutePercentageError,
        LossFunction::kMeanSquaredError,
        LossFunction::kRelativeMeanSquaredError, LossFunction::kHuber,
        LossFunction::kRelativeHuber}) {
    CheckParameterGradient(prediction, [&](Tape& tape) {
      return ComputeLoss(tape, tape.Param(prediction),
                         tape.Constant(target), loss);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, GradCheckTest,
    ::testing::Values(KernelBackendKind::kReference,
                      KernelBackendKind::kOptimized),
    [](const ::testing::TestParamInfo<KernelBackendKind>& info) {
      return std::string(GetKernelBackend(info.param).name());
    });

}  // namespace
}  // namespace granite::ml
