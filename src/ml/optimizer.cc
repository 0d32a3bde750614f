#include "ml/optimizer.h"

#include <cmath>

#include "base/logging.h"

namespace granite::ml {

// Adam's default moment decay rates and denominator epsilon.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

AdamOptimizer::AdamOptimizer(const AdamConfig& config) : config_(config) {
  GRANITE_CHECK_GT(config.learning_rate, 0.0f);
}

void AdamOptimizer::SetLearningRate(float learning_rate) {
  GRANITE_CHECK_GT(learning_rate, 0.0f);
  config_.learning_rate = learning_rate;
}

void AdamOptimizer::Step(ParameterStore& store) {
  ++step_count_;
  if (config_.gradient_clip_norm > 0.0f) {
    ClipGradientsByGlobalNorm(store, config_.gradient_clip_norm);
  }
  const double bias_correction1 =
      1.0 - std::pow(kBeta1, static_cast<double>(step_count_));
  const double bias_correction2 =
      1.0 - std::pow(kBeta2, static_cast<double>(step_count_));
  for (const auto& parameter : store.parameters()) {
    Tensor& value = parameter->value;
    Tensor& grad = parameter->grad;
    Tensor& m = parameter->adam_m;
    Tensor& v = parameter->adam_v;
    for (std::size_t i = 0; i < value.size(); ++i) {
      const float g = grad.data()[i];
      m.data()[i] = kBeta1 * m.data()[i] + (1.0f - kBeta1) * g;
      v.data()[i] = kBeta2 * v.data()[i] + (1.0f - kBeta2) * g * g;
      const double m_hat = m.data()[i] / bias_correction1;
      const double v_hat = v.data()[i] / bias_correction2;
      value.data()[i] -= static_cast<float>(
          config_.learning_rate * m_hat / (std::sqrt(v_hat) + kEpsilon));
    }
    grad.SetZero();
  }
  // Parameter values changed: invalidate anything keyed on model outputs
  // (e.g. the PredictBatch LRU cache versions itself on this counter).
  store.BumpGeneration();
}

double ClipGradientsByGlobalNorm(ParameterStore& store, double max_norm) {
  GRANITE_CHECK_GT(max_norm, 0.0);
  double total_squared = 0.0;
  for (const auto& parameter : store.parameters()) {
    const Tensor& grad = parameter->grad;
    for (std::size_t i = 0; i < grad.size(); ++i) {
      total_squared += static_cast<double>(grad.data()[i]) * grad.data()[i];
    }
  }
  const double norm = std::sqrt(total_squared);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (const auto& parameter : store.parameters()) {
      Tensor& grad = parameter->grad;
      for (std::size_t i = 0; i < grad.size(); ++i) grad.data()[i] *= scale;
    }
  }
  return norm;
}

}  // namespace granite::ml
