#include "ml/forward_arena.h"

#include <sys/mman.h>
#include <unistd.h>

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

thread_local ForwardArena* g_current_arena = nullptr;

}  // namespace

ForwardArena::~ForwardArena() {
  GRANITE_CHECK_EQ(live_tapes_, 0);
  for (const Block& block : overflow_) UnmapFloats(block.data, block.floats);
  UnmapFloats(chunk_, capacity_);
}

std::size_t ForwardArena::Footprint(std::size_t count) {
  return (count + kRedzoneFloats + kAlignFloats - 1) / kAlignFloats *
         kAlignFloats;
}

float* ForwardArena::Allocate(std::size_t count) {
  const std::size_t footprint = Footprint(count);
  float* data;
  if (capacity_ - used_ >= footprint) {
    data = chunk_ + used_;
    used_ += footprint;
  } else {
    data = MapFloats(footprint);
    ++blocks_mapped_;
    overflow_.push_back(Block{data, footprint});
    overflow_floats_ += footprint;
  }
  Unpoison(data, count * sizeof(float));
  return data;
}

void ForwardArena::Detach() {
  GRANITE_CHECK_GT(live_tapes_, 0);
  if (--live_tapes_ > 0) return;
  if (!overflow_.empty()) {
    // This forward outgrew the chunk: replace chunk and overflow with one
    // chunk that holds all of it.
    const std::size_t needed = used_ + overflow_floats_;
    for (const Block& block : overflow_) {
      UnmapFloats(block.data, block.floats);
    }
    overflow_.clear();
    overflow_floats_ = 0;
    UnmapFloats(chunk_, capacity_);
    chunk_ = MapFloats(needed);
    capacity_ = needed;
    ++blocks_mapped_;
  }
  used_ = 0;
  Poison(chunk_, capacity_ * sizeof(float));
}

ForwardArenaScope::ForwardArenaScope() : previous_(g_current_arena) {
  g_current_arena = &arena_;
}

ForwardArenaScope::~ForwardArenaScope() {
  GRANITE_CHECK_EQ(arena_.live_tapes(), 0);
  g_current_arena = previous_;
}

ForwardArena* ForwardArenaScope::Current() { return g_current_arena; }

}  // namespace granite::ml
