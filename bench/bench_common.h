#ifndef VKG_BENCH_BENCH_COMMON_H_
#define VKG_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/amazon_gen.h"
#include "data/freebase_gen.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "index/cracking_rtree.h"
#include "index/factory.h"
#include "query/aggregate_engine.h"
#include "query/topk_engine.h"
#include "transform/jl_transform.h"

namespace vkg::bench {

/// Global dataset scale factor. 1.0 reproduces the default bench sizes;
/// override with the VKG_BENCH_SCALE environment variable (e.g. 0.2 for
/// a quick pass, 4 for a longer run closer to paper scale).
double ScaleFactor();

/// Scales a count by ScaleFactor() with a floor.
size_t Scaled(size_t base, size_t min_value = 1);

/// Cached scaled datasets (generated once per process).
const data::Dataset& FreebaseDataset();
const data::Dataset& MovieDataset();
const data::Dataset& AmazonDataset();

/// One configured query-processing method over a dataset: the engine,
/// its (optional) underlying R-tree, and the offline build time.
struct MethodRun {
  std::string label;
  index::MethodKind kind;
  double build_seconds = 0.0;
  std::unique_ptr<query::TopKEngine> engine;
  index::CrackingRTree* rtree = nullptr;  // null for non-R-tree methods

  // Owned plumbing.
  std::unique_ptr<transform::JlTransform> jl;
  std::unique_ptr<index::PointSet> points;
  std::unique_ptr<index::CrackingRTree> rtree_owned;
  std::unique_ptr<index::PhTree> phtree;
};

/// Method construction knobs shared by the figure benches.
struct MethodOptions {
  size_t alpha = 3;
  double eps = 1.0;
  index::RTreeConfig rtree;
  index::H2AlshConfig h2alsh;
};

/// Builds one method over `ds`, timing any offline index construction
/// (bulk R-tree, PH-tree, H2-ALSH); cracking methods build nothing
/// offline by design.
MethodRun MakeMethod(const data::Dataset& ds, index::MethodKind kind,
                     const MethodOptions& options = {});

/// Builds an aggregate engine (always over a cracking R-tree).
struct AggregateRun {
  std::unique_ptr<query::AggregateEngine> engine;
  std::unique_ptr<transform::JlTransform> jl;
  std::unique_ptr<index::PointSet> points;
  std::unique_ptr<index::CrackingRTree> rtree;
};
AggregateRun MakeAggregateRun(const data::Dataset& ds,
                              const MethodOptions& options = {});

/// The per-method latency profile of Figures 3/5/7: offline build time,
/// the 1st/6th/11th/16th query, and the steady-state average after a
/// warm-up query.
struct TimeProfile {
  double build_s = 0.0;
  double q1_ms = 0.0;
  double q6_ms = 0.0;
  double q11_ms = 0.0;
  double q16_ms = 0.0;
  double warm_avg_us = 0.0;       // includes ongoing cracking work
  double converged_avg_us = 0.0;  // second pass: index fully converged
  size_t warm_queries = 0;
};
TimeProfile ProfileMethod(MethodRun& run,
                          const std::vector<data::Query>& queries, size_t k,
                          size_t warm_count);

/// Average precision@K of `run` against the exact linear scan.
double MeasurePrecision(MethodRun& run, MethodRun& truth,
                        const std::vector<data::Query>& queries, size_t k);

/// Pretty printing helpers: fixed-width table rows to stdout.
void PrintTitle(const std::string& title);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/// One machine-readable benchmark measurement.
struct BenchRecord {
  std::string name;   // e.g. "blocked_kernel_100k_x_100"
  double value = 0.0;
  std::string unit;   // e.g. "ms", "qps", "x"
};

/// Writes records to `path` as a stable JSON document
///   {"bench": <bench>, "scaling_valid": <bool>, "context": {...},
///    "results": [{name,value,unit,hardware_concurrency}]}
/// so figure benches and micro benches share one output format and
/// future PRs can diff perf trajectories. `context` entries are free-form
/// key/value doubles (thread counts, dataset sizes, scale factor).
///
/// Every result block records the host's hardware_concurrency, and the
/// top-level "scaling_valid" flag is false whenever `max_threads`
/// exceeds the core count — numbers produced by oversubscribed threads
/// (e.g. an 8-thread ladder on a 1-CPU host) must never be read as
/// scaling evidence, and tools/bench_check.py skips its scaling gate
/// when the flag is false. Single-threaded benches pass the default
/// `max_threads = 1`.
///
/// `string_context` entries land in the same "context" object as quoted
/// strings (e.g. which kernel variant the process dispatched to); both
/// keys and values must be escape-free literals. Every document also
/// carries "git_sha": the short sha of the checkout the bench was
/// built from, suffixed "-dirty" when its tracked sources (src/, bench/,
/// the CMake files) differ from HEAD, or "unknown" when git or the
/// checkout is unavailable.
void WriteBenchJson(
    const std::string& path, const std::string& bench,
    const std::vector<std::pair<std::string, double>>& context,
    const std::vector<BenchRecord>& records, size_t max_threads = 1,
    const std::vector<std::pair<std::string, std::string>>& string_context =
        {});

/// One point of the aggregate time/accuracy tradeoff (Figures 12-16).
struct AggregateSweepRow {
  size_t sample_size = 0;  // 0 = access all ball points
  double avg_accuracy = 0.0;
  double avg_time_us = 0.0;
  double avg_accessed = 0.0;
};

/// Runs the aggregate sample-size sweep: for each sample size, answers
/// every query and averages accuracy (vs. the exact full-scan result)
/// and latency.
std::vector<AggregateSweepRow> AggregateSweep(
    AggregateRun& run, const std::vector<data::Query>& queries,
    query::AggKind kind, const std::string& attribute, double prob_threshold,
    const std::vector<size_t>& sample_sizes);

/// Prints a sweep as a paper-style series.
void PrintAggregateSweep(const std::string& title,
                         const std::vector<AggregateSweepRow>& rows);

/// Standard workload: anchors from observed pairs, Zipf-skewed over the
/// pair list (Section VI observes the queried space is skewed).
std::vector<data::Query> StandardWorkload(const data::Dataset& ds,
                                          size_t num_queries, uint64_t seed,
                                          kg::RelationId only_relation =
                                              kg::kInvalidRelation);

}  // namespace vkg::bench

#endif  // VKG_BENCH_BENCH_COMMON_H_
