// The workloads, the serving pass and the per-layer measurements they
// share.
//
// Every workload runs in one of two modes:
//  * kEndToEnd — untraced; reports the end-to-end metrics.
//  * kTraced   — the workload's own operations, alternating untraced and
//                traced rounds; reports the per-layer metrics (end-to-end
//                figures become notes).
#ifndef VKG_PERFBENCH_WORKLOADS_H_
#define VKG_PERFBENCH_WORKLOADS_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/virtual_graph.h"
#include "inputs.h"
#include "oracle.h"
#include "trace_fold.h"

namespace perfbench {

using Vkg = vkg::core::VirtualKnowledgeGraph;

enum class Mode { kEndToEnd, kTraced };

/// What one workload run works on.
struct RunContext {
  const data::Dataset* dataset = nullptr;
  const Oracle* oracle = nullptr;
  Report* report = nullptr;
  uint64_t seed = 1;
  /// Relation the aggregate/update loop queries (kInvalidRelation = all)
  /// and the attribute its AVG aggregates read.
  kg::RelationId relation = kg::kInvalidRelation;
  std::string attribute;
};

/// Builds a fresh facade over a copy of the dataset's embeddings. Only
/// BuildWithEmbeddings is timed, in thread CPU time (the copy is input
/// handling). Aborts the run on failure: nothing can be measured
/// without it.
std::shared_ptr<Vkg> BuildFacade(const data::Dataset& ds,
                                 double* build_seconds);

/// One set-up is about 10 ms, and the host's speed drifts over seconds,
/// so setup_s is the median over the run of one sample per round, each
/// the mean of this many set-ups in a row.
inline constexpr size_t kSetupBuilds = 4;

/// Mean time of kSetupBuilds BuildFacade calls.
double SetupSample(const data::Dataset& ds);

/// An end-to-end figure: a metric in kEndToEnd mode, a note otherwise.
void EndToEnd(Report& report, Mode mode, const std::string& name,
              double value, const std::string& unit);

/// Cracking-index counters around a measured stretch.
struct IndexSnapshot {
  vkg::index::IndexStats stats;
  uint64_t generation = 0;
  uint64_t versions_retired = 0;
};
IndexSnapshot SnapIndex(const Vkg& vkg);

/// Sums of index counter deltas over one or more stretches.
struct IndexDeltas {
  double crack_calls = 0;
  double crack_generations = 0;
  double cracks_coalesced = 0;
  double crack_waits = 0;
  double versions_retired = 0;
  void Add(const IndexSnapshot& before, const IndexSnapshot& after);
  void Scale(double factor);
};

/// Reports the top-k family (index.* and the top-k query.* spans) from a
/// traced stretch of `topk_ops` top-k queries; `last` is the index state
/// at its end, `deltas` the counters over it.
void ReportTopKLayers(const SpanFold& fold, double topk_ops,
                      double rerank_rows, const IndexSnapshot& last,
                      const IndexDeltas& deltas, Report& report);

/// Reports trace.overhead_pct (traced vs untraced mean op CPU time over
/// the same operations) and trace.span_coverage_pct (`span_share`: the
/// share of traced op wall time inside the top-level spans).
void ReportTraceCost(double traced_op_us, double untraced_op_us,
                     double span_share, Report& report);

/// Times the public entry points of the transform, embedding and index
/// layers directly: JlTransform::Apply on the query centres,
/// GatherL2DistanceSquared on id lists of `rows` ids, and the first
/// CrackingRTree::orders() of a fresh tree.
void ReportDirectLayers(const Vkg& vkg, std::span<const data::Query> queries,
                        double rows, Report& report);

/// topk_cold: fresh facade per round, one caller thread, a whole Zipf
/// stream per round, cycling through `streams` (all of one length).
/// Returns the mean candidates examined per query.
double RunTopKCold(const RunContext& ctx,
                   const std::vector<std::vector<data::Query>>& streams,
                   double seconds, Mode mode);

/// The serving path (server.* and net.* per-layer metrics): fresh
/// VkgServer + NetServer per epoch, one closed-loop client per stream
/// over loopback TCP, then the same streams through in-process Execute,
/// then pings.
void RunServeLayers(const RunContext& ctx,
                    const std::vector<std::vector<data::Query>>& streams);

/// update_mix: fresh facade per round, then one of several fixed seeded
/// sequences of top-k reads, sampled AVG and full-ball COUNT aggregates, and
/// UpdateEntityEmbedding writes with CompactUpdates every
/// kUpdatesPerCompaction updates. Returns the mean candidates examined
/// per top-k query.
double RunUpdateMix(const RunContext& ctx, size_t ops_per_round,
                    double seconds, Mode mode);

}  // namespace perfbench

#endif  // VKG_PERFBENCH_WORKLOADS_H_
