/**
 * @file
 * A small least-recently-used cache.
 *
 * Used by the batched-inference path to memoize per-block predictions:
 * BHive-style corpora contain the same hot basic blocks over and over, so
 * an LRU over canonical block hashes lets repeated blocks skip the GNN
 * forward pass entirely. The cache itself is generic and single-threaded;
 * callers serialize access (ThroughputPredictor guards it with a mutex).
 */
#ifndef GRANITE_BASE_LRU_CACHE_H_
#define GRANITE_BASE_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <unordered_map>
#include <utility>

namespace granite::base {

/** A fixed-capacity map evicting the least-recently-used entry. */
template <typename Key, typename Value>
class LruCache {
 public:
  /** A zero-capacity cache stores nothing (every Get misses). */
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /**
   * Returns the cached value for `key` and marks it most-recently-used,
   * or nullptr on a miss. The pointer is invalidated by the next Put().
   */
  const Value* Get(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  /** Inserts or refreshes `key`, evicting the LRU entry when full. */
  void Put(const Key& key, Value value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
    entries_.emplace_front(key, std::move(value));
    index_[key] = entries_.begin();
  }

  /** True when `key` is cached; does not affect recency or stats. */
  bool Contains(const Key& key) const { return index_.count(key) > 0; }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  /** Lifetime Get() hit/miss counters. */
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

  /** Drops all entries (counters are kept). */
  void Clear() {
    entries_.clear();
    index_.clear();
  }

 private:
  std::size_t capacity_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  /** Most-recently-used first. */
  std::list<std::pair<Key, Value>> entries_;
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator>
      index_;
};

}  // namespace granite::base

#endif  // GRANITE_BASE_LRU_CACHE_H_
