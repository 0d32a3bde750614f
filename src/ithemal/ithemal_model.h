/**
 * @file
 * Re-implementation of the Ithemal baseline (Mendis et al., ICML 2019)
 * and the paper's "Ithemal+" extension (§4).
 *
 * Ithemal is a two-level LSTM: a token-level LSTM turns the token stream
 * of each instruction into an instruction embedding (its final hidden
 * state); a block-level LSTM turns the instruction embedding sequence
 * into a block embedding. The vanilla decoder is a dot product with a
 * learned weight vector. Ithemal+ replaces the dot product with the same
 * multi-layer ReLU decoder network as GRANITE and supports multi-task
 * heads (§3.4).
 */
#ifndef GRANITE_ITHEMAL_ITHEMAL_MODEL_H_
#define GRANITE_ITHEMAL_ITHEMAL_MODEL_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "asm/instruction.h"
#include "graph/vocabulary.h"
#include "ml/layers.h"
#include "ml/parameter.h"
#include "ml/tape.h"
#include "model/config_io.h"
#include "model/throughput_predictor.h"

namespace granite::ithemal {

/** Which decoder the model uses. */
enum class DecoderKind {
  /** Vanilla Ithemal: dot product with a learned weight vector. */
  kDotProduct,
  /** Ithemal+: multi-layer feed-forward ReLU decoder (paper §4). */
  kMlp,
};

/** The serialized spelling of each DecoderKind. */
inline constexpr std::array<model::EnumName<DecoderKind>, 2> kDecoderNames =
    {{{DecoderKind::kDotProduct, "dot_product"}, {DecoderKind::kMlp, "mlp"}}};

/** Hyper-parameters of the Ithemal models. */
struct IthemalConfig {
  int embedding_size = 256;
  int hidden_size = 256;
  DecoderKind decoder = DecoderKind::kDotProduct;
  /** Hidden layers of the Ithemal+ decoder. */
  std::vector<int> decoder_layers = {256, 256};
  bool decoder_layer_norm = true;
  /** One decoder head per task (microarchitecture). */
  int num_tasks = 1;
  /** Initial output bias of the Ithemal+ MLP decoder heads; set to the
   * target mean for fast convergence at scaled-down step counts. The
   * vanilla dot-product decoder has no bias term (as in the paper). */
  float decoder_output_bias_init = 0.0f;
  uint64_t seed = 42;

  /** Returns a proportionally scaled-down copy (for tests/benches). */
  IthemalConfig WithEmbeddingSize(int size) const;

  /** The serialized fields in bundle order, with the bounds a loaded
   * bundle must meet (model/config_io.h). */
  template <typename Self, typename Visitor>
  static void VisitFields(Self& config, Visitor& visitor) {
    visitor.Field("embedding_size", config.embedding_size,
                  model::kWidthRange);
    visitor.Field("hidden_size", config.hidden_size, model::kWidthRange);
    visitor.Field("decoder", config.decoder, kDecoderNames);
    visitor.Field("decoder_layers", config.decoder_layers,
                  model::kWidthRange);
    visitor.Field("decoder_layer_norm", config.decoder_layer_norm);
    visitor.Field("num_tasks", config.num_tasks, model::kCountRange);
    visitor.Field("decoder_output_bias_init",
                  config.decoder_output_bias_init);
    visitor.Field("seed", config.seed);
  }
};

/** The Ithemal / Ithemal+ throughput estimation model. */
class IthemalModel : public model::ThroughputPredictor {
 public:
  /** The vocabulary (CreateIthemalVocabulary()) must outlive the model. */
  IthemalModel(const graph::Vocabulary* vocabulary,
               const IthemalConfig& config);

  /** As above, but the model owns the vocabulary (checkpoint loading). */
  IthemalModel(std::unique_ptr<graph::Vocabulary> vocabulary,
               const IthemalConfig& config);

  /**
   * Runs the model on a batch of blocks.
   * @return One [num_blocks, 1] prediction column per task.
   */
  std::vector<ml::Var> Forward(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>& blocks) const;

  /**
   * Unified forward entry point (model::ThroughputPredictor). The LSTM
   * models have no graph encoding, so `graph` must be null.
   */
  std::vector<ml::Var> ForwardGraphsOrBlocks(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>* blocks,
      const graph::BatchedGraph* graph) const override;

  int num_tasks() const override { return config_.num_tasks; }
  model::ModelKind kind() const override {
    return model::ModelKind::kIthemal;
  }
  std::string DescribeConfig() const override;

  ml::ParameterStore& parameters() override { return *parameters_; }
  const ml::ParameterStore& parameters() const override {
    return *parameters_;
  }
  const graph::Vocabulary& vocabulary() const override {
    return *vocabulary_;
  }

 private:
  /** Computes one embedding row per instruction of every block:
   * the final hidden state of the token LSTM (batched, masked). */
  ml::Var EmbedInstructions(
      ml::Tape& tape,
      const std::vector<const assembly::BasicBlock*>& blocks,
      std::vector<int>& block_of_instruction) const;

  /** Set only by the owning-vocabulary constructor. */
  std::unique_ptr<graph::Vocabulary> owned_vocabulary_;
  const graph::Vocabulary* vocabulary_;
  IthemalConfig config_;
  std::unique_ptr<ml::ParameterStore> parameters_;
  std::unique_ptr<ml::Embedding> token_embedding_;
  std::unique_ptr<ml::LstmCell> token_lstm_;
  std::unique_ptr<ml::LstmCell> block_lstm_;
  /** kDotProduct: one weight column per task. */
  std::vector<ml::Parameter*> dot_weights_;
  /** kMlp: one decoder per task. */
  std::vector<std::unique_ptr<ml::Mlp>> decoders_;
};

}  // namespace granite::ithemal

#endif  // GRANITE_ITHEMAL_ITHEMAL_MODEL_H_
