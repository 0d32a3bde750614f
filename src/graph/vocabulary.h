/**
 * @file
 * Token vocabulary for graph nodes.
 *
 * Every graph node carries one assembly-language token (paper Table 2):
 * instruction mnemonics, prefixes, register names, and shared special
 * tokens for immediates, FP immediates, address computations and memory
 * values. The vocabulary assigns dense indices used by the learned node
 * embedding table, so its contents must be fixed before training.
 *
 * So that the graph builder hashes no strings for registers, special
 * tokens and canonical mnemonics, the vocabulary resolves at
 * construction the dense token id of every register id (RegisterToken),
 * of each special token (immediate_token() and the like) and of every
 * semantics-catalog row's canonical mnemonic (MnemonicToken). Each is
 * what TokenIndex gives for the same spelling, so a custom or
 * bundle-loaded token list keeps its ids, unknown fallback included.
 * Prefixes and non-canonical mnemonic spellings still go through
 * TokenIndex.
 */
#ifndef GRANITE_GRAPH_VOCABULARY_H_
#define GRANITE_GRAPH_VOCABULARY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "asm/registers.h"
#include "asm/semantics.h"

namespace granite::graph {

/** Immutable token-to-index mapping. */
class Vocabulary {
 public:
  /** Special token shared by all integer immediate value nodes. */
  static constexpr const char* kImmediateToken = "_IMMEDIATE_";
  /** Special token shared by all FP immediate value nodes. */
  static constexpr const char* kFpImmediateToken = "_FP_IMMEDIATE_";
  /** Special token shared by all address computation nodes. */
  static constexpr const char* kAddressToken = "_ADDRESS_";
  /** Special token shared by all memory value nodes. */
  static constexpr const char* kMemoryToken = "_MEMORY_";
  /** Fallback token for out-of-vocabulary mnemonics. */
  static constexpr const char* kUnknownToken = "_UNKNOWN_";

  /**
   * Builds the default vocabulary: special tokens, all register names,
   * all instruction prefixes, and every mnemonic of the semantics catalog.
   */
  static Vocabulary CreateDefault();

  /** Builds a vocabulary from an explicit token list (for tests). */
  explicit Vocabulary(std::vector<std::string> tokens);

  /** Number of tokens. */
  int size() const { return static_cast<int>(tokens_.size()); }

  /**
   * Returns the index of `token`, or the index of kUnknownToken when the
   * token is not in the vocabulary.
   */
  int TokenIndex(const std::string& token) const;

  /** All tokens in index order. */
  const std::vector<std::string>& tokens() const { return tokens_; }

  /** TokenIndex(RegisterName(reg)) for a valid register id. */
  int RegisterToken(assembly::Register reg) const {
    return register_token_[reg];
  }

  /** TokenIndex(row.mnemonic): the token of the row's canonical
   * spelling. */
  int MnemonicToken(const assembly::InstructionSemantics& row) const {
    return mnemonic_token_[row.id];
  }

  /** TokenIndex of kImmediateToken, kFpImmediateToken, kAddressToken
   * and kMemoryToken. */
  int immediate_token() const { return immediate_token_; }
  int fp_immediate_token() const { return fp_immediate_token_; }
  int address_token() const { return address_token_; }
  int memory_token() const { return memory_token_; }

 private:
  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int> index_;
  int unknown_index_ = 0;
  int immediate_token_ = 0;
  int fp_immediate_token_ = 0;
  int address_token_ = 0;
  int memory_token_ = 0;
  /** Indexed by register id. */
  std::vector<int> register_token_;
  /** Indexed by semantics-catalog row id. */
  std::vector<int> mnemonic_token_;
};

}  // namespace granite::graph

#endif  // GRANITE_GRAPH_VOCABULARY_H_
