#include "ml/tape_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "base/logging.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace granite::ml {
namespace {

// Every allocation starts on a 64-byte cache line (blocks are
// page-aligned).
constexpr std::size_t kAlignFloats = 16;

// The smallest overflow block: a step that outgrows an empty or small
// chunk takes a few shared blocks, not one mapping per allocation.
constexpr std::size_t kMinOverflowFloats = std::size_t{64} << 10;

#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kRedzoneFloats = kAlignFloats;
void Poison(const void* data, std::size_t bytes) {
  ASAN_POISON_MEMORY_REGION(data, bytes);
}
void Unpoison(const void* data, std::size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(data, bytes);
}
#else
constexpr std::size_t kRedzoneFloats = 0;
void Poison(const void*, std::size_t) {}
void Unpoison(const void*, std::size_t) {}
#endif

// Blocks are mapped from the OS, not taken from the malloc heap. Each
// fold frees one generation of blocks and takes a larger one; taken from
// the heap, the freed generations stayed resident as fragments and raised
// the process's peak RSS (see docs/SERVING.md, "Worker memory").
std::size_t MappedBytes(std::size_t floats) {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (floats * sizeof(float) + page - 1) / page * page;
}

/** Maps a block of at least `floats` floats, poisoned up to its last
 * page's end. */
float* MapFloats(std::size_t floats) {
  const std::size_t bytes = MappedBytes(floats);
  void* data = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  Poison(data, bytes);
  return static_cast<float*>(data);
}

void UnmapFloats(float* data, std::size_t floats) {
  if (data == nullptr) return;
  const std::size_t bytes = MappedBytes(floats);
  Unpoison(data, bytes);
  munmap(data, bytes);
}

thread_local TapeArena* g_current_arena = nullptr;

}  // namespace

TapeArena::~TapeArena() {
  GRANITE_CHECK_EQ(live_tapes_, 0);
  for (const Block& block : overflow_) UnmapFloats(block.data, block.floats);
  UnmapFloats(chunk_, capacity_);
}

std::size_t TapeArena::Footprint(std::size_t count) {
  return (count + kRedzoneFloats + kAlignFloats - 1) / kAlignFloats *
         kAlignFloats;
}

float* TapeArena::Allocate(std::size_t count) {
  const std::size_t footprint = Footprint(count);
  float* data;
  if (capacity_ - used_ >= footprint) {
    data = chunk_ + used_;
    used_ += footprint;
  } else {
    if (overflow_.empty() ||
        overflow_.back().floats - overflow_tail_used_ < footprint) {
      const std::size_t floats =
          std::max({footprint, capacity_, kMinOverflowFloats});
      overflow_.push_back(Block{MapFloats(floats), floats});
      ++blocks_mapped_;
      overflow_tail_used_ = 0;
    }
    data = overflow_.back().data + overflow_tail_used_;
    overflow_tail_used_ += footprint;
    overflow_used_ += footprint;
  }
  Unpoison(data, count * sizeof(float));
  return data;
}

void TapeArena::Detach() {
  GRANITE_CHECK_GT(live_tapes_, 0);
  if (--live_tapes_ > 0) return;
  if (!overflow_.empty()) {
    // This step outgrew the chunk: replace chunk and overflow with one
    // chunk that holds all of it, plus headroom for the next creep.
    const std::size_t needed = used_ + overflow_used_;
    for (const Block& block : overflow_) {
      UnmapFloats(block.data, block.floats);
    }
    overflow_.clear();
    overflow_tail_used_ = 0;
    overflow_used_ = 0;
    UnmapFloats(chunk_, capacity_);
    capacity_ = needed + needed / 8;
    chunk_ = MapFloats(capacity_);
    ++blocks_mapped_;
  }
  used_ = 0;
  Poison(chunk_, capacity_ * sizeof(float));
}

TapeArenaScope::TapeArenaScope(TapeArena& arena)
    : arena_(arena), previous_(g_current_arena) {
  g_current_arena = &arena_;
}

TapeArenaScope::~TapeArenaScope() {
  GRANITE_CHECK_EQ(arena_.live_tapes(), 0);
  g_current_arena = previous_;
}

TapeArena* TapeArenaScope::Current() { return g_current_arena; }

}  // namespace granite::ml
