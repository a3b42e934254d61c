#include "query/batch_executor.h"

#include <exception>
#include <new>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "util/failpoint.h"

namespace vkg::query {

namespace {

// Registry handles shared by all batch runs (cached once; see
// DESIGN.md §6e). Counters are bumped from worker threads — the
// thread-sharded registry makes that a relaxed atomic add.
struct BatchMetrics {
  obs::Counter& queries;
  obs::Counter& failed;
  obs::Counter& degraded;
  obs::Histogram& slot_latency_us;

  static BatchMetrics& Get() {
    static BatchMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new BatchMetrics{
          reg.GetCounter("vkg_batch_queries_total"),
          reg.GetCounter("vkg_batch_failed_total"),
          reg.GetCounter("vkg_batch_degraded_total"),
          reg.GetHistogram("vkg_batch_slot_latency_us")};
    }();
    return *metrics;
  }
};

void ConfigureContext(QueryContext& ctx, const BatchOptions& options) {
  ctx.control().set_deadline(options.deadline);
  ctx.control().set_cancel_token(options.cancel);
  ctx.control().set_budget(options.budget);
}

// Runs one query through `run`, translating every failure mode into a
// per-slot Status. `run` is invoked with a control that has been reset
// for this query (fresh point/crack counters, same deadline).
template <typename ResultT, typename RunFn>
util::Result<ResultT> AnswerOne(const kg::KnowledgeGraph* graph,
                                const data::Query& query,
                                QueryContext& ctx, const RunFn& run) {
  if (VKG_FAILPOINT("batch.query")) {
    return util::Status::Internal("injected failure: batch.query");
  }
  // Queries outside the graph's id space would trip VKG_CHECK
  // invariants deep in the engines (process-fatal); reject them at the
  // batch boundary so a bad slot cannot take the whole batch down.
  VKG_RETURN_IF_ERROR(ValidateQuery(graph, query));
  ctx.control().ResetForQuery();
  try {
    return run();
  } catch (const std::bad_alloc&) {
    return util::Status::ResourceExhausted(
        "allocation failed while answering query");
  } catch (const std::exception& e) {
    return util::Status::Internal(std::string("query failed: ") +
                                  e.what());
  }
}

}  // namespace

std::vector<util::Result<TopKResult>> BatchTopK(
    const TopKEngine& engine, std::span<const data::Query> queries,
    size_t k, util::ThreadPool* pool, const BatchOptions& options) {
  std::vector<util::Result<TopKResult>> results(
      queries.size(), util::Status::Internal("unanswered"));
  auto answer = [&](size_t i, QueryContext& ctx) {
    BatchMetrics& bm = BatchMetrics::Get();
    bm.queries.Inc();
    obs::ScopedLatencyUs slot_timer(bm.slot_latency_us);
    std::optional<obs::Trace> trace;
    if (options.trace_hook) {
      trace.emplace("topk slot " + std::to_string(i));
      ctx.set_trace(&*trace);
    }
    results[i] = AnswerOne<TopKResult>(
        engine.graph(), queries[i], ctx,
        [&]() -> util::Result<TopKResult> {
          return engine.TopKQuery(queries[i], k, ctx);
        });
    ctx.set_trace(nullptr);
    if (!results[i].ok()) {
      bm.failed.Inc();
    } else if (!results[i]->quality.exact) {
      bm.degraded.Inc();
    }
    if (options.trace_hook) options.trace_hook(i, *trace);
  };
  // Parallel shards share the engine directly: the cracking tree's read
  // path is lock-free (epoch-pinned immutable versions, DESIGN.md §6f),
  // so concurrent slots only ever serialize on the crack-side mutex —
  // and only when they actually crack.
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        engine.SupportsConcurrentQueries();
  if (!parallel) {
    QueryContext ctx;
    ConfigureContext(ctx, options);
    for (size_t i = 0; i < queries.size(); ++i) answer(i, ctx);
    return results;
  }
  pool->ParallelShards(
      queries.size(), [&](size_t /*shard*/, size_t begin, size_t end) {
        QueryContext ctx;  // per-shard: reused across the shard's queries
        ConfigureContext(ctx, options);
        for (size_t i = begin; i < end; ++i) answer(i, ctx);
      });
  return results;
}

std::vector<util::Result<AggregateResult>> BatchAggregate(
    const AggregateEngine& engine, std::span<const AggregateSpec> specs,
    util::ThreadPool* pool, const BatchOptions& options) {
  std::vector<util::Result<AggregateResult>> results(
      specs.size(), util::Status::Internal("unanswered"));
  auto answer = [&](size_t i, QueryContext& ctx) {
    BatchMetrics& bm = BatchMetrics::Get();
    bm.queries.Inc();
    obs::ScopedLatencyUs slot_timer(bm.slot_latency_us);
    std::optional<obs::Trace> trace;
    if (options.trace_hook) {
      trace.emplace("aggregate slot " + std::to_string(i));
      ctx.set_trace(&*trace);
    }
    results[i] = AnswerOne<AggregateResult>(
        engine.graph(), specs[i].query, ctx,
        [&]() -> util::Result<AggregateResult> {
          return engine.Aggregate(specs[i], ctx);
        });
    ctx.set_trace(nullptr);
    if (!results[i].ok()) {
      bm.failed.Inc();
    } else if (!results[i]->quality.exact) {
      bm.degraded.Inc();
    }
    if (options.trace_hook) options.trace_hook(i, *trace);
  };
  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        engine.SupportsConcurrentQueries();
  if (!parallel) {
    QueryContext ctx;
    ConfigureContext(ctx, options);
    for (size_t i = 0; i < specs.size(); ++i) answer(i, ctx);
    return results;
  }
  pool->ParallelShards(
      specs.size(), [&](size_t /*shard*/, size_t begin, size_t end) {
        QueryContext ctx;
        ConfigureContext(ctx, options);
        for (size_t i = begin; i < end; ++i) answer(i, ctx);
      });
  return results;
}

}  // namespace vkg::query
