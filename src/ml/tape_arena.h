/**
 * @file
 * Bump allocation for the node storage of tapes.
 *
 * Allocating, zero-filling and freeing every node value on the heap
 * costs a served forward about 70 allocator calls, and a training step
 * far more: every value, adjoint, LayerNorm state and parameter copy.
 * Recycling those buffers through a free list only moves the churn into
 * glibc's trimming: the heap top shrinks and grows again each step,
 * paying minor page faults. A TapeArena instead keeps one chunk for its
 * owner's life. Each tape created on a thread while a TapeArenaScope
 * lives bump-allocates its node storage from the scope's arena, and the
 * chunk is rewound when the last such tape dies.
 *
 * Growth. An allocation that does not fit in the chunk bumps from an
 * overflow block of at least max(capacity, 64K floats), shared with the
 * allocations after it. When the last tape dies, the overflow and the
 * old chunk are folded into one chunk of their combined use plus 1/8
 * headroom. So the chunk grows to its owner's largest step, a creeping
 * sequence of steps folds a number of times that grows with the log of
 * its growth, and an owner whose steps do not grow stops allocating for
 * node storage at all. Chunks and overflow blocks are mapped straight
 * from the OS, so node storage neither churns nor fragments the malloc
 * heap.
 *
 * Owners. Each InferenceServer worker keeps one arena, and each Trainer
 * keeps one per pool shard, shared by its training steps and evaluation
 * batches; each scope is installed around the owner's per-thread work.
 * A tape made outside any scope keeps heap tensors: a thread-local arena
 * for every thread would pin each one's largest step for the process's
 * life.
 *
 * Threading contract: an arena is not thread-safe. Only the thread whose
 * scope installed it allocates from it, and one arena is installed on
 * one thread at a time.
 *
 * Arena memory is not zero-filled. The tape zero-fills adjoints and the
 * outputs of accumulating kernels itself and leaves write-through
 * outputs as they are (see ml/tape.h). Under AddressSanitizer, the
 * unused part of every block and a redzone after every allocation are
 * poisoned, so a kernel that reads or writes past its output is reported.
 */
#ifndef GRANITE_ML_TAPE_ARENA_H_
#define GRANITE_ML_TAPE_ARENA_H_

#include <cstddef>
#include <vector>

namespace granite::ml {

class Tape;

/** Bump allocator behind the tapes of one owner (a worker or a shard). */
class TapeArena {
 public:
  TapeArena() = default;
  ~TapeArena();
  TapeArena(const TapeArena&) = delete;
  TapeArena& operator=(const TapeArena&) = delete;

  /** Floats in the retained chunk. */
  std::size_t capacity() const { return capacity_; }

  /** Blocks the arena has mapped: overflow blocks and folded chunks.
   * Constant across steps that fit in the chunk. */
  std::size_t blocks_mapped() const { return blocks_mapped_; }

  /** Tapes currently allocating from the arena. */
  int live_tapes() const { return live_tapes_; }

  /** Floats one allocation of `count` floats occupies in the chunk:
   * `count` plus alignment padding (and the redzone under ASan). */
  static std::size_t Footprint(std::size_t count);

 private:
  friend class Tape;

  /** A tape starts or stops allocating from the arena. The last Detach
   * rewinds the chunk and folds any overflow into it. */
  void Attach() { ++live_tapes_; }
  void Detach();

  /** Uninitialized storage for `count` floats, valid until the last
   * attached tape detaches. */
  float* Allocate(std::size_t count);

  struct Block {
    float* data;
    std::size_t floats;
  };

  float* chunk_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  // Blocks mapped for allocations that did not fit in the chunk since the
  // last rewind; allocations bump from the last one.
  std::vector<Block> overflow_;
  std::size_t overflow_tail_used_ = 0;
  // Floats the overflow allocations occupy, over all blocks.
  std::size_t overflow_used_ = 0;
  std::size_t blocks_mapped_ = 0;
  int live_tapes_ = 0;
  // The most nodes any tape on this arena has held; tapes reserve this
  // many up front instead of regrowing their node list every step.
  std::size_t max_tape_nodes_ = 0;
};

/**
 * Installs `arena` as the calling thread's for the scope's lifetime; the
 * previous one (usually none) is restored on exit. Every tape the thread
 * creates meanwhile allocates from it. The scope borrows the arena, which
 * must outlive it; tapes must die before the scope.
 */
class TapeArenaScope {
 public:
  explicit TapeArenaScope(TapeArena& arena);
  ~TapeArenaScope();
  TapeArenaScope(const TapeArenaScope&) = delete;
  TapeArenaScope& operator=(const TapeArenaScope&) = delete;

  /** The calling thread's arena, or nullptr outside any scope. */
  static TapeArena* Current();

 private:
  TapeArena& arena_;
  TapeArena* previous_;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_TAPE_ARENA_H_
