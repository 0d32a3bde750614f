/**
 * @file
 * Trainable parameters and the parameter store.
 *
 * A Parameter owns a value tensor, an accumulated-gradient tensor, and the
 * Adam moment estimates. The ParameterStore owns all parameters of a model
 * and provides name-based lookup. Checkpoint files are model bundles
 * (src/model/checkpoint.h); checkpoint selection by validation loss (paper
 * §4) is implemented in src/train.
 */
#ifndef GRANITE_ML_PARAMETER_H_
#define GRANITE_ML_PARAMETER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "ml/tensor.h"

namespace granite::ml {

/** How a freshly created parameter tensor is initialized. */
enum class Initializer {
  kZero,          ///< All zeros (biases).
  kOne,           ///< All ones (layer-norm gains).
  kGlorotUniform, ///< Uniform(-limit, limit), limit = sqrt(6/(fan_in+fan_out)).
  kNormalScaled,  ///< N(0, 1/sqrt(fan_in)); used for embedding tables.
};

/** One trainable tensor with its gradient and Adam state. */
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  Tensor adam_m;
  Tensor adam_v;
};

/**
 * Per-worker gradient buffers for data-parallel training.
 *
 * Each worker thread runs forward/backward on its own Tape with its own
 * sink, so concurrent backward passes never write shared state; after all
 * workers join, the coordinating thread reduces every sink into
 * Parameter::grad and runs the optimizer step. The result is bit-wise
 * independent of the worker count up to floating-point reduction order.
 */
class GradientSink {
 public:
  GradientSink() = default;
  GradientSink(const GradientSink&) = delete;
  GradientSink& operator=(const GradientSink&) = delete;
  GradientSink(GradientSink&&) = default;
  GradientSink& operator=(GradientSink&&) = default;

  /** The local gradient buffer for `parameter`, created zero-filled (with
   * the parameter's shape) on first use and kept across reduces. */
  Tensor& GradFor(Parameter* parameter);

  /** Adds every buffer touched since the last reduce into its
   * parameter's grad and zeroes it for the next pass. The buffers stay
   * allocated, so a sink reused across training steps allocates only in
   * its first. */
  void ReduceIntoParameters();

  /** Number of parameters touched since the last reduce. */
  std::size_t size() const { return num_touched_; }
  bool empty() const { return num_touched_ == 0; }

 private:
  struct Buffer {
    Parameter* parameter;
    Tensor grad;
    bool touched;
  };
  /** Insertion-ordered so the reduction order is deterministic. */
  std::vector<Buffer> grads_;
  std::unordered_map<Parameter*, std::size_t> index_;
  std::size_t num_touched_ = 0;
};

/** Owns every trainable parameter of a model. */
class ParameterStore {
 public:
  /** Creates a store whose initializers draw from `seed`. */
  explicit ParameterStore(uint64_t seed = 42);

  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /**
   * Creates (and owns) a new parameter. Fails if `name` already exists.
   * @return a stable pointer, valid for the lifetime of the store.
   */
  Parameter* Create(const std::string& name, int rows, int cols,
                    Initializer init);

  /** Returns the parameter registered under `name`, or fails. */
  Parameter* Get(const std::string& name) const;

  /** True when a parameter with `name` exists. */
  bool Contains(const std::string& name) const;

  /** All parameters, in creation order. */
  const std::vector<std::unique_ptr<Parameter>>& parameters() const {
    return parameters_;
  }

  /** Total number of scalar weights across all parameters. */
  std::size_t TotalWeights() const;

  /**
   * Monotone counter identifying the current set of parameter values.
   * Every bulk value mutation — an optimizer step, a checkpoint load, a
   * snapshot restore, a cross-store copy — bumps it, so caches keyed on
   * model outputs (GraniteModel::PredictBatch) can detect staleness
   * without being told explicitly. Reads are safe from any thread.
   */
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /** Records a bulk mutation of parameter values (see generation()). */
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  /** Copies all parameter values from another store (same structure). */
  void CopyValuesFrom(const ParameterStore& other);

  /** Captures a copy of all parameter values (for best-checkpoint
   * tracking during training). */
  std::vector<Tensor> SnapshotValues() const;

  /** Restores values captured by SnapshotValues(). */
  void RestoreValues(const std::vector<Tensor>& snapshot);

 private:
  Rng rng_;
  std::vector<std::unique_ptr<Parameter>> parameters_;
  std::unordered_map<std::string, Parameter*> by_name_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace granite::ml

#endif  // GRANITE_ML_PARAMETER_H_
