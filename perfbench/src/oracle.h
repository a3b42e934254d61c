// The benchmark's own answer oracle. It shares no query code with the
// program: it keeps its own double-precision copy of the raw embeddings,
// its own adjacency of the existing edges and its own attribute columns,
// and answers by brute force.
//
//  * Top-k: the k entities closest to the query centre (h + r for tail
//    queries, t - r for head queries) in S1, skipping the anchor and
//    every entity already joined to it by the relation in E (the E'-only
//    semantics of Section II).
//  * Aggregates: the p = d_min / d calibration of Section V-B over the
//    same distances, the ball {d <= d_min / p_tau}, and the expected
//    values of Eq. 3 (COUNT = sum p, SUM = sum v p, AVG = sum v p /
//    sum p) over every ball member that has the attribute.
#ifndef VKG_PERFBENCH_ORACLE_H_
#define VKG_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "data/workload.h"
#include "query/aggregate_engine.h"
#include "query/topk_engine.h"

namespace perfbench {

struct OracleHit {
  uint32_t entity = 0;
  double distance = 0.0;
};

class Oracle {
 public:
  /// `entities` is num_entities x dim row-major, `relations` one dim-row
  /// per relation; `attributes` maps a column name to one value
  /// per entity (NaN = missing).
  Oracle(size_t num_entities, size_t dim,
         std::span<const float> entities, std::span<const float> relations,
         const std::vector<kg::Triple>& triples,
         std::map<std::string, std::vector<double>> attributes);

  /// Copies everything the oracle needs out of a generated dataset.
  static Oracle FromDataset(const data::Dataset& ds);

  /// Replaces the oracle's copy of one entity vector (update_mix keeps
  /// it in step with UpdateEntityEmbedding).
  void SetEntity(uint32_t e, std::span<const float> vector);

  size_t num_entities() const { return num_entities_; }
  std::vector<double> Center(const data::Query& q) const;
  double Distance(uint32_t e, const std::vector<double>& center) const;
  /// The anchor itself or an entity joined to it by an existing edge.
  bool Excluded(const data::Query& q, uint32_t e) const;
  /// Entities that are valid answers (not excluded).
  size_t Eligible(const data::Query& q) const;

  /// Exact top-k, ascending by (distance, id).
  std::vector<OracleHit> TopK(const data::Query& q, size_t k) const;

  struct AggTruth {
    double value = 0.0;
    size_t ball_size = 0;  // ball members with the attribute
  };
  /// Exact full-ball COUNT / SUM / AVG (other kinds are not supported
  /// and return NaN).
  AggTruth Aggregate(const query::AggregateSpec& spec) const;

  /// [min, max] of an attribute column over entities that have it.
  std::pair<double, double> AttributeRange(const std::string& name) const;

 private:
  static uint64_t Key(uint32_t anchor, uint32_t relation) {
    return (static_cast<uint64_t>(anchor) << 32) | relation;
  }
  const std::vector<uint32_t>* Joined(const data::Query& q) const;
  /// One byte per entity: 1 for the anchor and entities joined to it.
  std::vector<uint8_t> SkipMask(const data::Query& q) const;

  size_t num_entities_;
  size_t dim_;
  std::vector<double> entities_;
  std::vector<double> relations_;
  // (head, relation) -> tails and (tail, relation) -> heads.
  std::unordered_map<uint64_t, std::vector<uint32_t>> tails_of_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> heads_of_;
  std::map<std::string, std::vector<double>> attributes_;
};

/// Relative tolerance on a reported S1 distance: the program computes in
/// float, the oracle in double.
inline constexpr double kDistanceRelTol = 1e-5;

/// Checks one top-k answer. Always: the size is min(k, eligible), hits
/// ascend by distance, are distinct, are neither the anchor nor joined to
/// it in E, and each reported distance equals the oracle's within
/// kDistanceRelTol. With `truth` (the oracle's top-k) it also writes the
/// answer's precision@k to `precision`. Returns "" when the answer passes
/// and a description of the first fault otherwise.
std::string CheckTopK(const Oracle& oracle, const data::Query& q, size_t k,
                      std::span<const query::TopKHit> hits,
                      const std::vector<OracleHit>* truth, double* precision);

/// The oracle's top-k for every distinct query of a stream, computed
/// up front on a few threads so no oracle work lands in a timed window.
class TruthTable {
 public:
  TruthTable(const Oracle& oracle, std::span<const data::Query> queries,
             size_t k, size_t threads);
  /// Null for a query that was not in the stream.
  const std::vector<OracleHit>* Find(const data::Query& q) const;
  size_t size() const { return truth_.size(); }

 private:
  static uint64_t Key(const data::Query& q) {
    return (static_cast<uint64_t>(q.anchor) << 32) |
           (static_cast<uint64_t>(q.relation) << 1) |
           (q.direction == kg::Direction::kTail ? 1u : 0u);
  }
  std::unordered_map<uint64_t, std::vector<OracleHit>> truth_;
};

/// Accumulates top-k checks over a run: every answer gets CheckTopK, and
/// answers with an oracle truth add to the mean precision@k.
class TopKChecker {
 public:
  TopKChecker(const Oracle* oracle, Report* report)
      : oracle_(oracle), report_(report) {}
  /// `truth` may be null (cheap checks only).
  void Check(const data::Query& q, size_t k, const query::TopKResult& result,
             const std::vector<OracleHit>* truth);
  /// Adds the mean precision note and flags a mean below the paper's
  /// 0.97 floor.
  void Finish(const std::string& label);

 private:
  const Oracle* oracle_;
  Report* report_;
  double precision_sum_ = 0.0;
  size_t precision_n_ = 0;
  size_t checked_ = 0;
};

/// The paper's precision floor (Figs 4/6/8).
inline constexpr double kPrecisionFloor = 0.97;

/// 1 - |returned - truth| / |truth|, floored at 0 (the accuracy of the
/// paper's aggregate figures).
double AggregateAccuracy(double returned, double truth);

/// Checks one aggregate answer against the oracle's `truth`: the value
/// must be finite, and an AVG must lie within the attribute's [lo, hi]
/// range. Writes the answer's accuracy; returns "" or the fault.
std::string CheckAggregate(query::AggKind kind, double value, double truth,
                           std::pair<double, double> range,
                           double* accuracy);

}  // namespace perfbench

#endif  // VKG_PERFBENCH_ORACLE_H_
