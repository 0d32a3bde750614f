#include "ithemal/ithemal_model.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "ithemal/tokenizer.h"

namespace granite::ithemal {

IthemalConfig IthemalConfig::WithEmbeddingSize(int size) const {
  IthemalConfig scaled = *this;
  scaled.embedding_size = size;
  scaled.hidden_size = size;
  scaled.decoder_layers = model::ScaledLayers(decoder_layers, size);
  return scaled;
}

IthemalModel::IthemalModel(std::unique_ptr<graph::Vocabulary> vocabulary,
                           const IthemalConfig& config)
    : IthemalModel(vocabulary.get(), config) {
  owned_vocabulary_ = std::move(vocabulary);
}

IthemalModel::IthemalModel(const graph::Vocabulary* vocabulary,
                           const IthemalConfig& config)
    : vocabulary_(vocabulary),
      config_(config),
      parameters_(std::make_unique<ml::ParameterStore>(config.seed)) {
  GRANITE_CHECK(vocabulary != nullptr);
  GRANITE_CHECK_GE(config.num_tasks, 1);
  token_embedding_ = std::make_unique<ml::Embedding>(
      parameters_.get(), "token_embedding", vocabulary->size(),
      config.embedding_size);
  token_lstm_ = std::make_unique<ml::LstmCell>(
      parameters_.get(), "token_lstm", config.embedding_size,
      config.hidden_size);
  block_lstm_ = std::make_unique<ml::LstmCell>(
      parameters_.get(), "block_lstm", config.hidden_size,
      config.hidden_size);
  for (int task = 0; task < config.num_tasks; ++task) {
    if (config.decoder == DecoderKind::kDotProduct) {
      dot_weights_.push_back(parameters_->Create(
          "dot_decoder/task" + std::to_string(task), config.hidden_size, 1,
          ml::Initializer::kGlorotUniform));
    } else {
      ml::MlpConfig decoder_config;
      decoder_config.input_size = config.hidden_size;
      decoder_config.hidden_sizes = config.decoder_layers;
      decoder_config.output_size = 1;
      decoder_config.layer_norm_at_input = config.decoder_layer_norm;
      decoder_config.output_bias_init = config.decoder_output_bias_init;
      decoders_.push_back(std::make_unique<ml::Mlp>(
          parameters_.get(), "mlp_decoder/task" + std::to_string(task),
          decoder_config));
    }
  }
}

ml::Var IthemalModel::EmbedInstructions(
    ml::Tape& tape, const std::vector<const assembly::BasicBlock*>& blocks,
    std::vector<int>& block_of_instruction) const {
  // Flatten all instructions of all blocks into one token-LSTM batch.
  std::vector<std::vector<int>> token_sequences;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    GRANITE_CHECK(blocks[b] != nullptr);
    for (const assembly::Instruction& instruction :
         blocks[b]->instructions) {
      token_sequences.push_back(
          TokenizeInstructionToIndices(instruction, *vocabulary_));
      block_of_instruction.push_back(static_cast<int>(b));
    }
  }
  GRANITE_CHECK_MSG(!token_sequences.empty(), "batch with no instructions");
  const int num_instructions = static_cast<int>(token_sequences.size());
  std::size_t max_length = 0;
  for (const auto& sequence : token_sequences) {
    max_length = std::max(max_length, sequence.size());
  }

  ml::LstmCell::State state =
      token_lstm_->InitialState(tape, num_instructions);
  for (std::size_t t = 0; t < max_length; ++t) {
    std::vector<int> step_tokens(num_instructions, 0);
    ml::Tensor mask(num_instructions, 1);
    for (int i = 0; i < num_instructions; ++i) {
      if (t < token_sequences[i].size()) {
        step_tokens[i] = token_sequences[i][t];
        mask.at(i, 0) = 1.0f;
      }
    }
    const ml::Var inputs = token_embedding_->Lookup(tape, step_tokens);
    state = token_lstm_->MaskedStep(tape, inputs, state,
                                    tape.Constant(std::move(mask)));
  }
  return state.hidden;
}

std::vector<ml::Var> IthemalModel::Forward(
    ml::Tape& tape,
    const std::vector<const assembly::BasicBlock*>& blocks) const {
  const int num_blocks = static_cast<int>(blocks.size());
  std::vector<int> block_of_instruction;
  const ml::Var instruction_embeddings =
      EmbedInstructions(tape, blocks, block_of_instruction);

  // Positions of each block's instructions in the flattened batch.
  std::vector<std::vector<int>> instructions_of_block(num_blocks);
  for (std::size_t i = 0; i < block_of_instruction.size(); ++i) {
    instructions_of_block[block_of_instruction[i]].push_back(
        static_cast<int>(i));
  }
  std::size_t max_instructions = 0;
  for (const auto& list : instructions_of_block) {
    max_instructions = std::max(max_instructions, list.size());
  }
  GRANITE_CHECK_GT(max_instructions, 0u);

  // Block-level LSTM over the instruction embeddings, masked for padding.
  ml::LstmCell::State state = block_lstm_->InitialState(tape, num_blocks);
  for (std::size_t t = 0; t < max_instructions; ++t) {
    std::vector<int> row_indices(num_blocks, 0);
    ml::Tensor mask(num_blocks, 1);
    for (int b = 0; b < num_blocks; ++b) {
      if (t < instructions_of_block[b].size()) {
        row_indices[b] = instructions_of_block[b][t];
        mask.at(b, 0) = 1.0f;
      }
    }
    const ml::Var inputs =
        tape.GatherRows(instruction_embeddings, row_indices);
    state = block_lstm_->MaskedStep(tape, inputs, state,
                                    tape.Constant(std::move(mask)));
  }

  std::vector<ml::Var> predictions;
  predictions.reserve(config_.num_tasks);
  for (int task = 0; task < config_.num_tasks; ++task) {
    if (config_.decoder == DecoderKind::kDotProduct) {
      predictions.push_back(
          tape.MatMul(state.hidden, tape.Param(dot_weights_[task])));
    } else {
      predictions.push_back(decoders_[task]->Apply(tape, state.hidden));
    }
  }
  return predictions;
}

std::vector<ml::Var> IthemalModel::ForwardGraphsOrBlocks(
    ml::Tape& tape, const std::vector<const assembly::BasicBlock*>* blocks,
    const graph::BatchedGraph* graph) const {
  GRANITE_CHECK_MSG(graph == nullptr,
                    "IthemalModel has no graph-encoded forward path");
  GRANITE_CHECK(blocks != nullptr);
  return Forward(tape, *blocks);
}

std::string IthemalModel::DescribeConfig() const {
  return model::SerializeFields(config_);
}

}  // namespace granite::ithemal
