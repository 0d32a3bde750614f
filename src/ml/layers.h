/**
 * @file
 * Reusable neural-network building blocks: embeddings, the multi-layer
 * feed-forward ReLU network used by every update function and decoder in
 * the paper (Table 4: 2x256 layers, layer norm at input, residual
 * connections), and the LSTM cell used by the Ithemal baselines.
 */
#ifndef GRANITE_ML_LAYERS_H_
#define GRANITE_ML_LAYERS_H_

#include <string>
#include <vector>

#include "ml/parameter.h"
#include "ml/tape.h"

namespace granite::ml {

/** A learnable lookup table mapping token indices to embedding rows. */
class Embedding {
 public:
  /**
   * @param store Parameter owner.
   * @param name Unique parameter name prefix.
   * @param vocabulary_size Number of rows in the table.
   * @param embedding_size Width of each embedding vector.
   */
  Embedding(ParameterStore* store, const std::string& name,
            int vocabulary_size, int embedding_size);

  /** Looks up one row per entry of `token_indices`. */
  Var Lookup(Tape& tape, const std::vector<int>& token_indices) const;

  int vocabulary_size() const { return vocabulary_size_; }
  int embedding_size() const { return embedding_size_; }

 private:
  Parameter* table_;
  int vocabulary_size_;
  int embedding_size_;
};

/** Configuration of a feed-forward ReLU network. */
struct MlpConfig {
  int input_size = 0;
  /** Hidden layer widths; ReLU is applied after each hidden layer. */
  std::vector<int> hidden_sizes;
  int output_size = 0;
  /** Applies learnable layer normalization to the input (paper §3.2). */
  bool layer_norm_at_input = true;
  /**
   * Adds the input to the output (residual connection); requires
   * input_size == output_size.
   */
  bool residual = false;
  /**
   * Initial value of the output-layer bias. Regression heads converge
   * much faster when this is set to the target mean, because the network
   * then only learns deviations from it.
   */
  float output_bias_init = 0.0f;
};

/** A multi-layer feed-forward ReLU network. */
class Mlp {
 public:
  Mlp(ParameterStore* store, const std::string& name, const MlpConfig& config);

  /** Applies the network to a batch of rows [N, input_size]. */
  Var Apply(Tape& tape, Var input) const;

 private:
  MlpConfig config_;
  Parameter* norm_gain_ = nullptr;
  Parameter* norm_bias_ = nullptr;
  std::vector<Parameter*> weights_;
  std::vector<Parameter*> biases_;
};

/** A standard LSTM cell (Hochreiter & Schmidhuber, 1997). */
class LstmCell {
 public:
  LstmCell(ParameterStore* store, const std::string& name, int input_size,
           int hidden_size);

  /** The (hidden, cell) state pair flowing between steps. */
  struct State {
    Var hidden;
    Var cell;
  };

  /** Returns zero-initialized state for a batch of `batch_size` rows. */
  State InitialState(Tape& tape, int batch_size) const;

  /**
   * One time step over a batch: `input` is [batch, input_size]; the state
   * tensors are [batch, hidden_size].
   */
  State Step(Tape& tape, Var input, const State& state) const;

  /**
   * Masked step for padded sequences: rows where `mask` (a [batch, 1]
   * column of 0/1 values) is 0 keep their previous state.
   */
  State MaskedStep(Tape& tape, Var input, const State& state, Var mask) const;

  int hidden_size() const { return hidden_size_; }
  int input_size() const { return input_size_; }

 private:
  /** Computes one gate preactivation: x*Wx + h*Wh + b. */
  Var Gate(Tape& tape, Var input, Var hidden, int gate_index) const;

  int input_size_;
  int hidden_size_;
  // Order: input gate, forget gate, cell candidate, output gate.
  std::vector<Parameter*> input_weights_;
  std::vector<Parameter*> hidden_weights_;
  std::vector<Parameter*> gate_biases_;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_LAYERS_H_
