#ifndef VKG_UTIL_LRU_CACHE_H_
#define VKG_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vkg::util {

/// Running totals of one cache segment. Monotone except via Reset();
/// read under the cache's lock so the numbers are mutually consistent.
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;    // Put over an existing key
  uint64_t evictions = 0;  // capacity-driven removals (not Erase)
};

/// A bounded, thread-safe least-recently-used cache: the building block
/// of the server's sharded result cache (DESIGN.md §6g). Bounds are
/// enforced on *both* entry count and accumulated byte cost (whichever
/// trips first evicts from the cold end); a zero bound means "no bound
/// on this axis", but at least one axis must be bounded.
///
/// Byte accounting is caller-supplied: Put() takes the entry's cost so
/// heap-heavy values (a top-k hit vector) charge what they actually
/// weigh. An entry whose cost alone exceeds max_bytes is not admitted
/// (it would evict the whole cache for one resident).
///
/// Thread safety: every operation takes the internal mutex — the cache
/// is a cold-ish path (one lookup per server request, never inside the
/// index hot loops). Get() returns a *copy* of the value so no reference
/// escapes the lock.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  /// `max_entries` / `max_bytes`: 0 disables that bound (not both).
  LruCache(size_t max_entries, size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value cached under `key` (promoted to most-recently-used), or
  /// nullopt. Counted as one hit or one miss.
  std::optional<V> Get(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  /// Inserts or overwrites `key` with `value` costing `bytes`, promotes
  /// it, and evicts from the cold end until both bounds hold again.
  /// Oversized entries (bytes > max_bytes when bounded) are dropped.
  void Put(const K& key, V value, size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (max_bytes_ > 0 && bytes > max_bytes_) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.updates;
    } else {
      lru_.push_front(Entry{key, std::move(value), bytes});
      map_[key] = lru_.begin();
      bytes_ += bytes;
      ++stats_.inserts;
    }
    while (OverCapacity()) {
      ++stats_.evictions;
      RemoveEntry(std::prev(lru_.end()));
    }
  }

  /// Removes `key`; false when absent. Not counted as an eviction.
  bool Erase(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    RemoveEntry(it->second);
    return true;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    map_.clear();
    bytes_ = 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  LruCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Keys from most- to least-recently used (tests and diagnostics).
  std::vector<K> KeysByRecency() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<K> keys;
    keys.reserve(lru_.size());
    for (const Entry& e : lru_) keys.push_back(e.key);
    return keys;
  }

  /// Re-bounds the byte axis (0 disables it) and evicts from the cold
  /// end until the new bound holds — the memory-pressure shrink path.
  /// Raising the bound back later is a no-op on residents; the cache
  /// simply refills. Returns the number of entries evicted now.
  size_t SetMaxBytes(size_t max_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    max_bytes_ = max_bytes;
    size_t evicted = 0;
    while (OverCapacity()) {
      ++stats_.evictions;
      ++evicted;
      RemoveEntry(std::prev(lru_.end()));
    }
    return evicted;
  }

  size_t max_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_bytes_;
  }

 private:
  struct Entry {
    K key;
    V value;
    size_t bytes = 0;
  };
  using List = std::list<Entry>;

  bool OverCapacity() const {
    if (lru_.empty()) return false;
    if (max_entries_ > 0 && lru_.size() > max_entries_) return true;
    return max_bytes_ > 0 && bytes_ > max_bytes_;
  }

  void RemoveEntry(typename List::iterator it) {
    bytes_ -= it->bytes;
    map_.erase(it->key);
    lru_.erase(it);
  }

  const size_t max_entries_;
  size_t max_bytes_;  // mutable via SetMaxBytes (guarded by mu_)

  mutable std::mutex mu_;
  List lru_;  // front = most recently used
  std::unordered_map<K, typename List::iterator, Hash> map_;
  size_t bytes_ = 0;
  LruCacheStats stats_;
};

}  // namespace vkg::util

#endif  // VKG_UTIL_LRU_CACHE_H_
