#ifndef VKG_SERVER_SHARD_H_
#define VKG_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/virtual_graph.h"
#include "query/request.h"
#include "server/health.h"
#include "server/result_cache.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace vkg::server {

/// Per-shard construction knobs (derived from ServerConfig).
struct ShardOptions {
  size_t threads = 1;          // worker pool size
  size_t queue_capacity = 1024;  // max in-flight requests (admit + queued)
  size_t cache_bytes = 0;      // 0 disables this shard's cache segment
  size_t cache_entries = 0;    // 0 = bounded by bytes only
  double default_deadline_ms = 0.0;
  util::ResourceBudget default_budget;
  /// Circuit-breaker thresholds for this shard (DESIGN.md §6h).
  BreakerConfig breaker;
  /// Budget forced onto otherwise-unlimited queries at PressureLevel
  /// kDegraded and above.
  util::ResourceBudget pressure_budget;
};

/// One worker shard of the query server (DESIGN.md §6g). A shard holds
/// only what isolates it from its siblings:
///
///  * its own util::ThreadPool (bounded by queue_capacity through the
///    server's depth accounting) and circuit breaker;
///  * one ResultCache segment, stamped with the VKG's data version;
///  * the in-flight coalescing map: duplicate (h, r, k) requests
///    submitted while an identical computation is pending attach to its
///    shared future instead of computing again.
///
/// It computes through the facade (VirtualKnowledgeGraph's
/// context-taking TopK / Aggregate), so every shard and the facade
/// crack the one index, use the configured method, and see pending
/// embedding updates.
///
/// Thread safety: Compute* run on pool workers (thread-local
/// QueryContext per worker); the coalescing map and cache are
/// internally locked; the facade's tree is lock-free for readers and
/// serializes its own cracks.
class Shard {
 public:
  Shard(size_t id, const core::VirtualKnowledgeGraph& vkg,
        const ShardOptions& options);

  size_t id() const { return id_; }
  ResultCache& cache() { return cache_; }
  util::ThreadPool& pool() { return *pool_; }
  CircuitBreaker& breaker() { return breaker_; }

  // --- Depth accounting (the server's backpressure bound) -----------------

  /// Claims a queue slot; false when the shard is at capacity (the
  /// request must be rejected, not queued).
  bool TryReserveSlot();
  void ReleaseSlot();
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  size_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }

  // --- Coalescing ---------------------------------------------------------

  /// The pending computation for `key`, if any. Registers a new one
  /// (leader) otherwise. `*leader` tells the caller whether it must
  /// enqueue the compute task and later call FinishInFlight.
  struct InFlight {
    std::promise<query::ServerResponse> promise;
    std::shared_future<query::ServerResponse> future;
  };
  std::shared_ptr<InFlight> JoinOrRegister(const query::QueryKey& key,
                                           bool* leader);

  /// Unregisters `key` (leader side, before fulfilling the promise).
  void FinishInFlight(const query::QueryKey& key);
  size_t in_flight() const;

  // --- Compute (worker-thread side) ---------------------------------------

  /// Answers a top-k request through the facade, stamps the response
  /// with the data version read *before* computing, and populates the
  /// cache under `key` (exact results only). `deadline` is the
  /// request's *absolute* end-to-end deadline (stamped at admission —
  /// queue wait has already burned part of it); `pressure_degrade`
  /// forces the shard's pressure budget onto otherwise-unlimited
  /// queries (DESIGN.md §6h).
  query::ServerResponse ComputeTopK(const query::ServerRequest& request,
                                    const query::QueryKey& key,
                                    util::Deadline deadline,
                                    bool pressure_degrade);

  /// Answers an aggregate request (not cached or coalesced).
  query::ServerResponse ComputeAggregate(const query::ServerRequest& request,
                                         util::Deadline deadline,
                                         bool pressure_degrade);

 private:
  const size_t id_;
  const core::VirtualKnowledgeGraph& vkg_;
  const ShardOptions options_;

  ResultCache cache_;
  CircuitBreaker breaker_;

  std::atomic<size_t> depth_{0};
  std::atomic<size_t> peak_depth_{0};

  mutable std::mutex inflight_mu_;
  std::unordered_map<query::QueryKey, std::shared_ptr<InFlight>,
                     query::QueryKeyHash>
      inflight_;

  // Last, so the workers are joined before the state their tasks touch
  // is destroyed.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace vkg::server

#endif  // VKG_SERVER_SHARD_H_
