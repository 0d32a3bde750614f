/**
 * @file
 * Basic block → GRANITE graph translation (paper §3.1).
 */
#ifndef GRANITE_GRAPH_GRAPH_BUILDER_H_
#define GRANITE_GRAPH_GRAPH_BUILDER_H_

#include "asm/instruction.h"
#include "graph/block_graph.h"
#include "graph/vocabulary.h"

namespace granite::graph {

/** Translates basic blocks into the GRANITE graph encoding. */
class GraphBuilder {
 public:
  /** The vocabulary must outlive the builder. */
  explicit GraphBuilder(const Vocabulary* vocabulary);

  /**
   * Builds the dependency graph of `block`.
   *
   * The construction follows the paper exactly:
   *  - one mnemonic node per instruction, chained with structural
   *    dependency edges; prefix nodes attach to their mnemonic node;
   *  - value nodes are SSA-like: each write creates a fresh node, and at
   *    most one producer edge (mnemonic → value) enters any value node;
   *  - register reads consume the most recent value node of the aliased
   *    full-width register, creating an unproduced node when the value
   *    comes from outside the block;
   *  - memory operands contribute an address-computation node (fed by
   *    base / index / segment / displacement edges) plus a memory value
   *    node; memory is tracked as a single conservatively-aliased value,
   *    so a load after a store consumes the store's memory value node;
   *  - implicit operands (EFLAGS, RAX/RDX for MUL/DIV, RSP for PUSH/POP,
   *    string registers, and RCX for a REP-prefixed string operation)
   *    take part exactly like explicit ones.
   *
   * All instructions must be supported by the semantics catalog.
   */
  BlockGraph Build(const assembly::BasicBlock& block) const;

  const Vocabulary& vocabulary() const { return *vocabulary_; }

 private:
  const Vocabulary* vocabulary_;
};

}  // namespace granite::graph

#endif  // GRANITE_GRAPH_GRAPH_BUILDER_H_
