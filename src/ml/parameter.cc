#include "ml/parameter.h"

#include <cmath>
#include <cstdint>

#include "base/logging.h"

namespace granite::ml {
namespace {

void InitializeTensor(Tensor& tensor, Initializer init, Rng& rng) {
  const int fan_in = tensor.rows();
  const int fan_out = tensor.cols();
  switch (init) {
    case Initializer::kZero:
      tensor.SetZero();
      break;
    case Initializer::kOne:
      tensor.Fill(1.0f);
      break;
    case Initializer::kGlorotUniform: {
      const float limit =
          std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
      for (std::size_t i = 0; i < tensor.size(); ++i) {
        tensor.data()[i] = rng.NextUniform(-limit, limit);
      }
      break;
    }
    case Initializer::kNormalScaled: {
      const float scale =
          1.0f / std::sqrt(static_cast<float>(std::max(1, fan_out)));
      for (std::size_t i = 0; i < tensor.size(); ++i) {
        tensor.data()[i] = static_cast<float>(rng.NextGaussian()) * scale;
      }
      break;
    }
  }
}

}  // namespace

Tensor& GradientSink::GradFor(Parameter* parameter) {
  GRANITE_CHECK(parameter != nullptr);
  const auto [it, inserted] = index_.emplace(parameter, grads_.size());
  if (inserted) {
    grads_.push_back(Buffer{
        parameter, Tensor(parameter->grad.rows(), parameter->grad.cols()),
        false});
  }
  Buffer& buffer = grads_[it->second];
  if (!buffer.touched) {
    buffer.touched = true;
    ++num_touched_;
  }
  return buffer.grad;
}

void GradientSink::ReduceIntoParameters() {
  for (Buffer& buffer : grads_) {
    if (!buffer.touched) continue;
    float* dest = buffer.parameter->grad.data();
    float* source = buffer.grad.data();
    for (std::size_t i = 0; i < buffer.grad.size(); ++i) {
      dest[i] += source[i];
      source[i] = 0.0f;
    }
    buffer.touched = false;
  }
  num_touched_ = 0;
}

ParameterStore::ParameterStore(uint64_t seed) : rng_(seed) {}

Parameter* ParameterStore::Create(const std::string& name, int rows, int cols,
                                  Initializer init) {
  GRANITE_CHECK_MSG(!Contains(name), "duplicate parameter: " << name);
  auto parameter = std::make_unique<Parameter>();
  parameter->name = name;
  parameter->value = Tensor(rows, cols);
  parameter->grad = Tensor(rows, cols);
  parameter->adam_m = Tensor(rows, cols);
  parameter->adam_v = Tensor(rows, cols);
  InitializeTensor(parameter->value, init, rng_);
  Parameter* raw = parameter.get();
  by_name_.emplace(name, raw);
  parameters_.push_back(std::move(parameter));
  return raw;
}

Parameter* ParameterStore::Get(const std::string& name) const {
  const auto it = by_name_.find(name);
  GRANITE_CHECK_MSG(it != by_name_.end(), "unknown parameter: " << name);
  return it->second;
}

bool ParameterStore::Contains(const std::string& name) const {
  return by_name_.count(name) > 0;
}

std::size_t ParameterStore::TotalWeights() const {
  std::size_t total = 0;
  for (const auto& parameter : parameters_) total += parameter->value.size();
  return total;
}

std::vector<Tensor> ParameterStore::SnapshotValues() const {
  std::vector<Tensor> snapshot;
  snapshot.reserve(parameters_.size());
  for (const auto& parameter : parameters_) {
    snapshot.push_back(parameter->value);
  }
  return snapshot;
}

void ParameterStore::RestoreValues(const std::vector<Tensor>& snapshot) {
  GRANITE_CHECK_EQ(snapshot.size(), parameters_.size());
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    GRANITE_CHECK_EQ(snapshot[i].rows(), parameters_[i]->value.rows());
    GRANITE_CHECK_EQ(snapshot[i].cols(), parameters_[i]->value.cols());
    parameters_[i]->value = snapshot[i];
  }
  BumpGeneration();
}

void ParameterStore::CopyValuesFrom(const ParameterStore& other) {
  GRANITE_CHECK_EQ(parameters_.size(), other.parameters_.size());
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    GRANITE_CHECK_EQ(parameters_[i]->name, other.parameters_[i]->name);
    GRANITE_CHECK_EQ(parameters_[i]->value.rows(),
                     other.parameters_[i]->value.rows());
    GRANITE_CHECK_EQ(parameters_[i]->value.cols(),
                     other.parameters_[i]->value.cols());
    parameters_[i]->value = other.parameters_[i]->value;
  }
  BumpGeneration();
}

}  // namespace granite::ml
