/**
 * @file
 * Per-thread bump allocation for the node values of inference tapes.
 *
 * Allocating, zero-filling and freeing every node value on the heap
 * costs a served forward about 70 allocator calls. Recycling those
 * buffers through a free list only moves the churn into glibc's
 * trimming: the heap top shrinks and grows again each forward, paying
 * minor page faults. A ForwardArena instead keeps one chunk for the
 * thread's life. Each GradMode::kNone tape created on the thread while a
 * ForwardArenaScope lives bump-allocates its node values from that
 * chunk, and the chunk is rewound when the last such tape dies. A
 * forward larger than any before it spills into exact-size overflow
 * blocks; when the last tape dies, those and the old chunk are folded
 * into one chunk of the combined size. So the chunk grows to the
 * thread's largest forward, and a thread whose forwards do not grow
 * stops allocating for node values at all. The chunk and the overflow
 * blocks are mapped straight from the OS, so node values neither churn
 * nor fragment the thread's malloc heap.
 *
 * Threads without a scope, including every training thread, keep owning
 * heap tensors: an arena per trainer thread would pin each one's largest
 * training step for the process's life.
 *
 * Threading contract: an arena belongs to the thread whose scope
 * installed it and is not thread-safe; tapes on other threads never see
 * it.
 *
 * Arena memory is not zero-filled. The tape zero-fills the outputs of
 * accumulating kernels itself and leaves write-through outputs as they
 * are (see ml/tape.h). Under AddressSanitizer, the unused part of the
 * chunk and a redzone after every allocation are poisoned, so a kernel
 * that reads or writes past its output is reported.
 */
#ifndef GRANITE_ML_FORWARD_ARENA_H_
#define GRANITE_ML_FORWARD_ARENA_H_

#include <cstddef>
#include <vector>

namespace granite::ml {

class Tape;

/** Bump allocator behind the inference tapes of one thread. */
class ForwardArena {
 public:
  ForwardArena() = default;
  ~ForwardArena();
  ForwardArena(const ForwardArena&) = delete;
  ForwardArena& operator=(const ForwardArena&) = delete;

  /** Floats in the retained chunk. */
  std::size_t capacity() const { return capacity_; }

  /** Blocks the arena has mapped: overflow blocks and folded chunks.
   * Constant across forwards that fit in the chunk. */
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
  // Allocations that did not fit in the chunk during the current forward.
  std::vector<Block> overflow_;
  std::size_t overflow_floats_ = 0;
  std::size_t blocks_mapped_ = 0;
  int live_tapes_ = 0;
  // The most nodes any tape on this arena has held; tapes reserve this
  // many up front instead of regrowing their node list every forward.
  std::size_t max_tape_nodes_ = 0;
};

/**
 * Installs an arena as the calling thread's for the scope's lifetime; the
 * previous one (usually none) is restored on exit. Every inference tape
 * the thread creates meanwhile allocates from it. Tapes must die before
 * the scope. InferenceServer's worker threads each hold one.
 */
class ForwardArenaScope {
 public:
  ForwardArenaScope();
  ~ForwardArenaScope();
  ForwardArenaScope(const ForwardArenaScope&) = delete;
  ForwardArenaScope& operator=(const ForwardArenaScope&) = delete;

  ForwardArena& arena() { return arena_; }

  /** The calling thread's arena, or nullptr outside any scope. */
  static ForwardArena* Current();

 private:
  ForwardArena arena_;
  ForwardArena* previous_;
};

}  // namespace granite::ml

#endif  // GRANITE_ML_FORWARD_ARENA_H_
