#ifndef VKG_SERVER_RESULT_CACHE_H_
#define VKG_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "query/request.h"
#include "query/topk_engine.h"
#include "util/lru_cache.h"

namespace vkg::server {

/// One shard's segment of the server's result cache: a bounded LRU of
/// exact top-k results, each stamped with the data version
/// (VirtualKnowledgeGraph::data_version()) read before it was computed
/// (DESIGN.md §6g).
///
/// Invalidation contract: an entry is served only while its stamp
/// equals the *current* data version. An embedding update or a change
/// to the graph's edge set moves the version, so every entry stamped
/// earlier becomes unservable at that instant — Lookup() treats it as
/// a miss, erases it, and counts it invalidated. Cracks do not touch
/// the version: every exact answer meets the Theorem 2 bound whichever
/// tree version produced it, so a refined tree retires nothing.
///
/// Only *exact* results (quality.exact, no stop reason) are stored:
/// degraded answers depend on the requester's deadline/budget and must
/// never be replayed to a request with laxer limits. Cached payloads
/// are returned by value, bit-identical to the computation that stored
/// them.
class ResultCache {
 public:
  struct Entry {
    query::TopKResult result;
    uint64_t data_version = 0;
  };

  /// `max_bytes` == 0 disables the cache entirely (Lookup always
  /// misses without counting, Store drops).
  ResultCache(size_t max_bytes, size_t max_entries);

  bool enabled() const { return enabled_; }

  /// The entry under `key` if present AND stamped `data_version`; a
  /// stale entry is erased and counted as an invalidation + miss.
  std::optional<Entry> Lookup(const query::QueryKey& key,
                              uint64_t data_version);

  /// Stores an exact result stamped `data_version`, which the caller
  /// read *before* computing it. Degraded results are ignored (see
  /// class comment).
  void Store(const query::QueryKey& key, const query::TopKResult& result,
             uint64_t data_version);

  /// Re-bounds this segment's byte budget and evicts cold entries until
  /// it holds — the memory-pressure shrink/restore path (DESIGN.md
  /// §6h). A disabled cache stays disabled. Returns entries evicted.
  size_t SetByteBudget(size_t max_bytes);

  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t invalidated = 0;  // data-version-stamp evictions
    uint64_t evictions = 0;    // capacity-driven LRU evictions
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats stats() const;

  /// Approximate heap cost of caching `result` (charged to the LRU's
  /// byte bound).
  static size_t EntryBytes(const query::TopKResult& result);

 private:
  bool enabled_;
  util::LruCache<query::QueryKey, Entry, query::QueryKeyHash> lru_;
  // Cache-semantics counters, distinct from the raw LRU's: a stale
  // entry is a *miss* here even though the LRU found the key.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> stores_{0};
};

}  // namespace vkg::server

#endif  // VKG_SERVER_RESULT_CACHE_H_
