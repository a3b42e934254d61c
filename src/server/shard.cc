#include "server/shard.h"

#include <exception>
#include <string>
#include <utility>

#include "util/string_util.h"

namespace vkg::server {

Shard::Shard(size_t id, const core::VirtualKnowledgeGraph& vkg,
             const ShardOptions& options)
    : id_(id),
      vkg_(vkg),
      options_(options),
      cache_(options.cache_bytes, options.cache_entries),
      breaker_(options.breaker),
      pool_(std::make_unique<util::ThreadPool>(
          options.threads == 0 ? 1 : options.threads)) {}

bool Shard::TryReserveSlot() {
  size_t cur = depth_.load(std::memory_order_relaxed);
  while (true) {
    if (options_.queue_capacity > 0 && cur >= options_.queue_capacity) {
      return false;
    }
    if (depth_.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
      break;
    }
  }
  size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (peak < cur + 1 && !peak_depth_.compare_exchange_weak(
                               peak, cur + 1, std::memory_order_relaxed)) {
  }
  return true;
}

void Shard::ReleaseSlot() {
  depth_.fetch_sub(1, std::memory_order_relaxed);
}

std::shared_ptr<Shard::InFlight> Shard::JoinOrRegister(
    const query::QueryKey& key, bool* leader) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_.find(key);
  if (it != inflight_.end()) {
    *leader = false;
    return it->second;
  }
  auto entry = std::make_shared<InFlight>();
  entry->future = entry->promise.get_future().share();
  inflight_[key] = entry;
  *leader = true;
  return entry;
}

void Shard::FinishInFlight(const query::QueryKey& key) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(key);
}

size_t Shard::in_flight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_.size();
}

namespace {

// One reusable context per worker thread: shard pools own their
// threads, so a context never serves two shards, and
// ApplyRequestControl rearms deadline/budget per request.
query::QueryContext& WorkerContext() {
  thread_local query::QueryContext ctx;
  return ctx;
}

// Memory pressure forces a budget only onto queries that would
// otherwise run unlimited: an explicit request/server budget is already
// bounded and is never loosened *or* tightened behind the caller's back.
bool ForcePressureBudget(const util::ResourceBudget& pressure_budget,
                         query::QueryContext& ctx) {
  if (!ctx.control().budget().Unlimited()) return false;
  ctx.control().set_budget(pressure_budget);
  return true;
}

}  // namespace

query::ServerResponse Shard::ComputeTopK(const query::ServerRequest& request,
                                         const query::QueryKey& key,
                                         util::Deadline deadline,
                                         bool pressure_degrade) {
  query::ServerResponse response;
  response.meta.shard = id_;
  try {
    query::QueryContext& ctx = WorkerContext();
    query::ApplyRequestControlAbsolute(request, deadline,
                                       options_.default_budget, ctx);
    if (pressure_degrade) {
      response.meta.degraded_by_pressure =
          ForcePressureBudget(options_.pressure_budget, ctx);
    }
    // Read the version before computing: a change that lands mid-query
    // leaves the entry stamped with the older version, so the next
    // lookup retires it instead of serving it.
    response.meta.data_version = vkg_.data_version();
    response.topk = vkg_.TopK(request.query, request.k, ctx);
    response.status = util::Status::OK();
    cache_.Store(key, response.topk, response.meta.data_version);
  } catch (const std::bad_alloc&) {
    response.status =
        util::Status::ResourceExhausted("allocation failed during top-k");
  } catch (const std::exception& e) {
    response.status = util::Status::Internal(
        util::StrFormat("top-k computation failed: %s", e.what()));
  }
  return response;
}

query::ServerResponse Shard::ComputeAggregate(
    const query::ServerRequest& request, util::Deadline deadline,
    bool pressure_degrade) {
  query::ServerResponse response;
  response.meta.shard = id_;
  try {
    query::QueryContext& ctx = WorkerContext();
    query::ApplyRequestControlAbsolute(request, deadline,
                                       options_.default_budget, ctx);
    if (pressure_degrade) {
      response.meta.degraded_by_pressure =
          ForcePressureBudget(options_.pressure_budget, ctx);
    }
    response.meta.data_version = vkg_.data_version();
    util::Result<query::AggregateResult> result =
        vkg_.Aggregate(request.aggregate, ctx);
    if (result.ok()) {
      response.aggregate = std::move(result).value();
      response.status = util::Status::OK();
    } else {
      response.status = result.status();
    }
  } catch (const std::bad_alloc&) {
    response.status = util::Status::ResourceExhausted(
        "allocation failed during aggregate");
  } catch (const std::exception& e) {
    response.status = util::Status::Internal(
        util::StrFormat("aggregate computation failed: %s", e.what()));
  }
  return response;
}

}  // namespace vkg::server
