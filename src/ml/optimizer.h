/**
 * @file
 * The Adam optimizer (Kingma & Ba, 2014) used for all training in the
 * paper (learning rate 1e-3, default moment decay rates; §4), plus global
 * gradient-norm clipping, which the paper needed for the no-layer-norm
 * ablation (§5.2).
 */
#ifndef GRANITE_ML_OPTIMIZER_H_
#define GRANITE_ML_OPTIMIZER_H_

#include "ml/parameter.h"

namespace granite::ml {

/** Configuration of the Adam optimizer. The moment decay rates and
 * epsilon are the paper's defaults, fixed in optimizer.cc. */
struct AdamConfig {
  float learning_rate = 1e-3f;
  /**
   * When positive, gradients are rescaled so that their global L2 norm
   * does not exceed this value before the update is applied.
   */
  float gradient_clip_norm = 0.0f;
};

/** Stateless-config, stateful-step Adam optimizer. */
class AdamOptimizer {
 public:
  explicit AdamOptimizer(const AdamConfig& config = AdamConfig());

  /**
   * Applies one Adam update from the accumulated gradients of every
   * parameter in `store`, then zeroes the gradients.
   */
  void Step(ParameterStore& store);

  /** Number of updates applied so far. */
  int64_t step_count() const { return step_count_; }

  /** Overrides the learning rate (used by schedules). */
  void SetLearningRate(float learning_rate);

 private:
  AdamConfig config_;
  int64_t step_count_ = 0;
};

/**
 * Rescales all gradients in `store` so their global L2 norm is at most
 * `max_norm`. Returns the pre-clipping norm.
 */
double ClipGradientsByGlobalNorm(ParameterStore& store, double max_norm);

}  // namespace granite::ml

#endif  // GRANITE_ML_OPTIMIZER_H_
