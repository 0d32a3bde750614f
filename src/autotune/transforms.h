/**
 * @file
 * Semantics-driven basic-block transform catalog for the autotuner.
 *
 * Every rule enumerates *candidate* rewrites of a block — spellings
 * with the same architectural effect whose relative cost the served cost
 * model (or the analytical oracle) is asked to rank. Legality is decided
 * entirely from assembly::DataFlowFor (src/asm/semantics), the decoder
 * the throughput oracle also reads: per-operand read/write sets,
 * implicit registers, the EFLAGS read/write bits and the memory
 * accesses. Where the catalog models EFLAGS as a single register,
 * so do we — with the one classic exception (INC/DEC preserve CF) that
 * is special-cased so a partial-flags writer never masks a dropped or
 * added flags definition.
 *
 * Blocks are measured in a loop (the BHive setup the throughput oracle
 * models), so all liveness here is *loop-carried*: a register or the
 * flags are dead after position i when a forward scan — wrapping once
 * from the end of the block back to its start — reaches a full writer
 * before any reader.
 *
 * The catalog is bidirectional where the x86 idiom is: strength
 * reduction (IMUL-by-constant → SHL/LEA) and its inverse, zero idioms
 * (MOV r,0 ↔ XOR r,r), ADD/SUB±1 ↔ INC/DEC, load-op-store ↔
 * read-modify-write, plus dependency-preserving adjacent reordering.
 * The search layer explores both directions and lets the cost model
 * pick; DeoptimizeBlock() walks the worsening direction on purpose to
 * synthesize "naive codegen" corpora for closed-loop evaluation.
 *
 * Invariant: every emitted candidate round-trips through the parser
 * (ParseBasicBlock(candidate.ToString()) reproduces the candidate) and
 * preserves architectural semantics as modeled by the catalog.
 *
 * A candidate is its block and the name of the rule that produced it;
 * the catalog is a constant table of (name, enumerate function) rules.
 *
 * Threading: everything here is thread-safe; the catalog is a constant
 * table and all free functions are pure (safe to call from any number
 * of threads concurrently). The only state is each thread's
 * RoundTripMemo, which changes no result.
 */
#ifndef GRANITE_AUTOTUNE_TRANSFORMS_H_
#define GRANITE_AUTOTUNE_TRANSFORMS_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asm/instruction.h"
#include "asm/registers.h"
#include "asm/semantics.h"
#include "uarch/throughput_model.h"

namespace granite::autotune {

/**
 * True when the two accesses may touch the same memory. Provably
 * disjoint only when both address expressions use the *identical*
 * base/index/scale/segment registers and the byte intervals
 * [displacement, displacement + width) do not overlap; any unknown or
 * differing base (two registers may hold the same address) aliases.
 */
bool MayAlias(const assembly::MemoryAccess& a,
              const assembly::MemoryAccess& b);

/** True when swapping two adjacent instructions with these footprints
 * would change program semantics: any register RAW/WAR/WAW hazard
 * (flags and address components included) or a potentially aliasing
 * memory conflict. */
bool Conflicts(const assembly::DataFlow& a, const assembly::DataFlow& b);

/**
 * Loop-carried deadness of canonical register `reg` after position
 * `index`: scanning forward (wrapping once to the block start), a full
 * writer is reached before any reader. Writes that also read (RMW) or
 * partial-flags writers (INC/DEC when `reg` is the flags register) do
 * not kill. Positions listed in `skip` are ignored — the rewrite is
 * about to remove them.
 */
bool RegisterDeadAfter(const assembly::BasicBlock& block, std::size_t index,
                       assembly::Register reg,
                       const std::vector<std::size_t>& skip = {});

/** RegisterDeadAfter for EFLAGS: may the definition made at `index` be
 * dropped (or a new one inserted there) without any consumer seeing a
 * different value? */
bool FlagsDeadAfter(const assembly::BasicBlock& block, std::size_t index,
                    const std::vector<std::size_t>& skip = {});

/** One legal rewrite of a block: the transformed block and the name of
 * the catalog rule that produced it. `rule` views the name in
 * TransformCatalog(), which lives as long as the process. */
struct RewriteCandidate {
  assembly::BasicBlock block;
  std::string_view rule = {};
};

/** One catalog entry: a stable kebab-case rule name (e.g.
 * "strength-reduce") and the function that appends every legal
 * application of the rule to `out` (zero or more). The rule table in
 * docs/AUTOTUNER.md describes each entry. */
struct Rule {
  std::string_view name;
  void (*enumerate)(const assembly::BasicBlock& block,
                    std::vector<RewriteCandidate>& out);
};

/** The rule catalog, in the order EnumerateCandidates applies it. */
std::span<const Rule> TransformCatalog();

/**
 * The round-trip check every instruction of an emitted candidate passes,
 * with a bounded memo of the instructions that passed it. A search
 * enumerates the same few instructions over and over (the beam's blocks
 * share most of theirs), so each thread renders and parses back an
 * instruction once while its memo holds it, not once per candidate.
 * Slots are picked by a hash of the rendered text, but only an
 * instruction equal (operator==) to the one a slot holds skips the
 * parse. Every other instruction is rendered, parsed and compared.
 */
class RoundTripMemo {
 public:
  /** Instructions one memo holds at most (about 35 KB per thread). */
  static constexpr std::size_t kCapacity = 128;

  /** The calling thread's memo. */
  static RoundTripMemo& ForThisThread();

  /** Panics with "transform emitted a non-round-tripping block" unless
   * `instruction` parses back as exactly itself. */
  void Check(const assembly::Instruction& instruction);

  /** Instructions held now; at most kCapacity. */
  std::size_t size() const { return size_; }

 private:
  RoundTripMemo();

  /** kCapacity slots, indexed by the text hash. */
  std::vector<std::optional<assembly::Instruction>> slots_;
  std::size_t size_ = 0;
  /** Rendering buffer, reused across checks. */
  std::string text_;
};

/**
 * Every legal single-step rewrite of `block` across the whole catalog.
 * Blocks containing an instruction the semantics catalog does not know
 * produce no candidates (their data flow cannot be reasoned about).
 * Every returned block is guaranteed to round-trip through the parser:
 * each replacement instruction is checked where it is spliced in and
 * each input instruction once per call, which suffices because the
 * parser reads a block line by line.
 */
std::vector<RewriteCandidate> EnumerateCandidates(
    const assembly::BasicBlock& block);

/**
 * Greedily applies the catalog in the *worsening* direction — each step
 * picks the candidate with the strictly highest analytical cost — for
 * up to `max_rewrites` steps. Deterministic. This synthesizes the
 * "naive codegen" corpora the closed-loop benchmark and CLI optimize:
 * every applied step has its inverse in the catalog, so the search can
 * provably recover the original spelling (or better).
 */
assembly::BasicBlock DeoptimizeBlock(const assembly::BasicBlock& block,
                                     const uarch::ThroughputModel& oracle,
                                     int max_rewrites = 4);

}  // namespace granite::autotune

#endif  // GRANITE_AUTOTUNE_TRANSFORMS_H_
