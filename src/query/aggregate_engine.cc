#include "query/aggregate_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "embedding/batch_kernels.h"
#include "embedding/vector_ops.h"
#include "obs/metrics.h"
#include "query/exclusion.h"
#include "query/prob_model.h"
#include "transform/jl_bounds.h"
#include "query/topk_engine.h"
#include "util/check.h"

namespace vkg::query {

namespace {

// Registry handles shared by every aggregate engine (cached once; see
// DESIGN.md §6e).
struct AggMetrics {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& accessed;
  obs::Histogram& latency_us;

  static AggMetrics& Get() {
    static AggMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new AggMetrics{
          reg.GetCounter("vkg_agg_queries_total"),
          reg.GetCounter("vkg_agg_degraded_total"),
          reg.GetCounter("vkg_agg_accessed_total"),
          reg.GetHistogram("vkg_agg_latency_us")};
    }();
    return *metrics;
  }
};

}  // namespace

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kMin:
      return "MIN";
  }
  return "?";
}

AggregateEngine::AggregateEngine(const kg::KnowledgeGraph* graph,
                                 const embedding::EmbeddingStore* store,
                                 const transform::JlTransform* jl,
                                 index::CrackingRTree* tree, double eps,
                                 bool crack_after_query)
    : graph_(graph),
      store_(store),
      jl_(jl),
      tree_(tree),
      eps_(eps),
      crack_after_query_(crack_after_query) {
  top1_ = std::make_unique<RTreeTopKEngine>(graph_, store_, jl_, tree_, eps_,
                                            /*crack_after_query=*/false,
                                            "agg-top1");
}

namespace {

// The aggregated value of each record, with the attribute column
// resolved once per query instead of by name per record: 1 for COUNT,
// else the column's value, NaN where the entity has none.
class RecordValues {
 public:
  // `spec` must have passed ValidateSpec (the column exists).
  RecordValues(const kg::KnowledgeGraph& graph, const AggregateSpec& spec) {
    if (spec.kind != AggKind::kCount) {
      column_ = *graph.attributes().Get(spec.attribute);
    }
  }

  double operator()(uint32_t id) const {
    if (column_ == nullptr) return 1.0;
    if (id >= column_->size()) return std::numeric_limits<double>::quiet_NaN();
    return (*column_)[id];
  }

 private:
  const std::vector<double>* column_ = nullptr;  // null for COUNT
};

util::Status ValidateSpec(const kg::KnowledgeGraph& graph,
                          const AggregateSpec& spec) {
  if (spec.prob_threshold <= 0.0 || spec.prob_threshold > 1.0) {
    return util::Status::InvalidArgument(
        "prob_threshold must be in (0, 1]");
  }
  if (spec.kind != AggKind::kCount &&
      !graph.attributes().Has(spec.attribute)) {
    return util::Status::NotFound("unknown attribute: " + spec.attribute);
  }
  return util::Status::OK();
}

}  // namespace

util::Result<AggregateResult> AggregateEngine::Aggregate(
    const AggregateSpec& spec, QueryContext& ctx) const {
  VKG_RETURN_IF_ERROR(ValidateSpec(*graph_, spec));
  obs::ScopedLatencyUs latency(AggMetrics::Get().latency_us);
  obs::Trace* trace = ctx.trace();
  obs::Span span(trace, "aggregate");
  span.SetAttr("kind", AggKindName(spec.kind));
  AggMetrics::Get().queries.Inc();
  util::QueryControl& control = ctx.control();

  // d_min via a top-1 probe (shares Algorithm 3 machinery; no cracking —
  // the aggregate's own final region cracks below). The probe shares
  // ctx's control block, so its work draws down the same budget and a
  // stop tripped here degrades the rest of the aggregate too. It also
  // Reset()s ctx's arena on entry, so the aggregate allocates its own
  // arena scratch only after the probe returns.
  TopKResult nearest = top1_->TopKQuery(spec.query, 1, ctx);
  if (nearest.hits.empty()) {
    AggregateResult empty;
    if (control.stopped()) {
      empty.quality.exact = false;
      empty.quality.stop_reason = control.stop_reason();
      AggMetrics::Get().degraded.Inc();
      span.SetAttr("stop_reason",
                   util::StopReasonName(empty.quality.stop_reason));
    }
    return empty;
  }
  util::Arena& arena = ctx.arena();
  arena.Reset();  // reclaim the probe's scratch
  // A fresh stamp with the E'-only exclusions stamped: contour elements
  // are disjoint, so the stamp read is the whole per-record skip test.
  const auto [visit_stamp, stamp] = ctx.BeginQuery(store_->num_entities());
  const Exclusion exclusion(*graph_, spec.query);
  exclusion.StampInto({visit_stamp, store_->num_entities()}, stamp);
  const RecordValues value_of(*graph_, spec);
  std::span<float> q_s1 = arena.AllocateSpan<float>(store_->dim());
  store_->QueryCenterInto(spec.query.anchor, spec.query.relation,
                          spec.query.direction, q_s1);
  index::Point q_s2 = [&] {
    std::span<float> q_alpha = arena.AllocateSpan<float>(jl_->output_dim());
    jl_->Apply(q_s1, q_alpha);
    return index::Point::FromSpan(q_alpha);
  }();
  ProbabilityModel pm(nearest.hits[0].distance);
  const double r_tau = pm.RadiusForThreshold(spec.prob_threshold);
  const double r_s2 = r_tau * (1.0 + eps_);
  index::Rect region = index::Rect::BoundingBoxOfBall(q_s2, r_s2);
  span.SetAttr("r_tau", r_tau);


  // Best-first traversal by element distance: the a closest records are
  // accessed exactly (S1 distance + attribute page), and once the budget
  // is exhausted the remaining contour elements contribute *estimates*
  // from their entity counts and average distance to the query point —
  // Section V-B's use of the index contour. Per-query work therefore
  // scales with the sample size a plus the touched contour, not with the
  // ball cardinality.
  const size_t budget = spec.sample_size == 0
                            ? std::numeric_limits<size_t>::max()
                            : spec.sample_size;
  const index::PointSet& points = tree_->points();
  util::ArenaVector<BallPoint> accessed{util::ArenaAllocator<BallPoint>(
      &arena)};
  double unaccessed_mass = 0.0;
  double unaccessed_count = 0.0;

  // Unaccessed elements contribute through the exact conditional
  // expectations under the JL transform (given l2 = s, the original
  // distance is l1 = s sqrt(alpha)/chi_alpha): expected member count
  // |e| * P(l1 <= r_tau | s) and expected probability mass
  // |e| * E[(d_min/l1) 1{l1 <= r_tau} | s], evaluated at the element's
  // centroid distance (floored by its MBR min distance).
  const size_t alpha = jl_->output_dim();
  auto estimate_element = [&](const index::Node& node) {
    double centroid_d2 = 0;
    for (size_t d = 0; d < node.mbr.dim; ++d) {
      double mid = 0.5 * (static_cast<double>(node.mbr.lo[d]) +
                          node.mbr.hi[d]);
      double diff = mid - q_s2.c[d];
      centroid_d2 += diff * diff;
    }
    double dist_s2 =
        std::max(std::sqrt(centroid_d2),
                 std::sqrt(node.mbr.MinDistSquared(q_s2.AsSpan())));
    double count = static_cast<double>(node.size());
    unaccessed_count +=
        count * transform::MembershipProbability(dist_s2, r_tau, alpha);
    unaccessed_mass += count * transform::ExpectedInverseMass(
                                   pm.d_min(), dist_s2, r_tau, alpha);
  };

  // The contour traversal runs under one epoch pin (no locks, DESIGN.md
  // §6f): Node pointers in the frontier and ElementIds() spans reference
  // immutable version nodes that the pin keeps allocated. The root is
  // captured once so the frontier traverses a single consistent version.
  index::CrackingRTree::ReadPin pin = tree_->PinForRead();
  const index::Node& tree_root = tree_->root();
  obs::Span contour_span(trace, "agg.contour");
  using Frontier = std::pair<double, const index::Node*>;
  util::ArenaVector<Frontier> frontier_store{
      util::ArenaAllocator<Frontier>(&arena)};
  frontier_store.reserve(64);
  std::priority_queue<Frontier, util::ArenaVector<Frontier>, std::greater<>>
      frontier(std::greater<>(), std::move(frontier_store));
  frontier.emplace(tree_root.mbr.MinDistSquared(q_s2.AsSpan()),
                   &tree_root);
  // Per-element (S2 distance, id) scratch, hoisted so its arena block is
  // reused across contour elements.
  util::ArenaVector<std::pair<double, uint32_t>> local{
      util::ArenaAllocator<std::pair<double, uint32_t>>(&arena)};
  bool budget_exhausted = false;
  while (!frontier.empty()) {
    // A tripped deadline / cancellation / point budget behaves exactly
    // like an exhausted sample budget: stop accessing records and fall
    // back to contour estimates for everything left in the ball — the
    // answer stays usable, just with a wider Theorem 4 error. Gated on a
    // non-empty sample so even an already-expired deadline accesses the
    // first in-ball record instead of degenerating to value 0.
    if (!budget_exhausted && !accessed.empty() && control.ShouldStop()) {
      budget_exhausted = true;
    }
    auto [d2, node] = frontier.top();
    frontier.pop();
    if (std::sqrt(d2) > r_s2) break;  // outside the ball entirely
    if (budget_exhausted) {
      // Keep descending internal nodes (cheap: no point access) so the
      // estimates are taken at contour-element granularity.
      if (node->kind == index::Node::Kind::kInternal) {
        for (const index::Node* child : node->children) {
          double cd2 = child->mbr.MinDistSquared(q_s2.AsSpan());
          if (std::sqrt(cd2) <= r_s2) frontier.emplace(cd2, child);
        }
      } else {
        estimate_element(*node);
      }
      continue;
    }
    if (node->kind == index::Node::Kind::kInternal) {
      for (const index::Node* child : node->children) {
        double cd2 = child->mbr.MinDistSquared(q_s2.AsSpan());
        if (std::sqrt(cd2) <= r_s2) frontier.emplace(cd2, child);
      }
      continue;
    }
    // Contour element: order its points by S2 distance and access them.
    local.clear();
    local.reserve(node->size());
    for (uint32_t id : tree_->ElementIds(*node)) {
      double d = std::sqrt(points.DistSquared(id, q_s2.AsSpan()));
      if (d <= r_s2) local.emplace_back(d, id);
    }
    std::sort(local.begin(), local.end());
    size_t processed = 0;
    for (const auto& [s2_dist, id] : local) {
      if (accessed.size() >= budget) break;
      // Once at least one record is in the sample, honor stops at a
      // small stride; the guaranteed first access keeps an
      // already-expired deadline from producing an empty sample.
      if (!accessed.empty() && (processed & 15) == 0 &&
          control.ShouldStop()) {
        break;
      }
      ++processed;
      if (visit_stamp[id] == stamp) continue;
      control.AddPoints(1);
      double dist = embedding::L2Distance(store_->Entity(id), q_s1);
      if (dist > r_tau) continue;  // outside the ball in S1
      double value = value_of(id);
      if (spec.kind != AggKind::kCount && std::isnan(value)) continue;
      accessed.push_back({id, dist, pm.ProbabilityAt(dist)});
    }
    if (accessed.size() >= budget || control.stopped()) {
      budget_exhausted = true;
      // Estimate the rest of this element point-wise (distances known).
      for (size_t i = processed; i < local.size(); ++i) {
        double s2_dist = local[i].first;
        unaccessed_count +=
            transform::MembershipProbability(s2_dist, r_tau, alpha);
        unaccessed_mass += transform::ExpectedInverseMass(
            pm.d_min(), s2_dist, r_tau, alpha);
      }
    }
  }

  contour_span.SetAttr("accessed", static_cast<double>(accessed.size()));
  contour_span.SetAttr("estimated_count", unaccessed_count);
  contour_span.End();
  // Unpin before cracking: not required for correctness (writers never
  // wait for readers), but letting the epoch advance during the crack
  // keeps retired-version reclamation prompt.
  pin = index::CrackingRTree::ReadPin();
  if (crack_after_query_ && !control.stopped()) {
    tree_->Crack(region, &control, trace);
  }
  util::Result<AggregateResult> result =
      Estimate(spec, std::span<const BallPoint>(accessed.data(),
                                                accessed.size()),
               unaccessed_mass, unaccessed_count);
  if (result.ok() && control.stopped()) {
    result->quality.exact = false;
    result->quality.stop_reason = control.stop_reason();
    AggMetrics::Get().degraded.Inc();
    span.SetAttr("stop_reason",
                 util::StopReasonName(result->quality.stop_reason));
  }
  if (result.ok()) {
    AggMetrics::Get().accessed.Inc(result->accessed);
    span.SetAttr("accessed", static_cast<double>(result->accessed));
    span.SetAttr("estimated_total", result->estimated_total);
  }
  return result;
}

util::Result<AggregateResult> AggregateEngine::ExactAggregate(
    const AggregateSpec& spec) const {
  VKG_RETURN_IF_ERROR(ValidateSpec(*graph_, spec));
  const Exclusion exclusion(*graph_, spec.query);
  const RecordValues value_of(*graph_, spec);
  std::vector<float> q_s1 = store_->QueryCenter(
      spec.query.anchor, spec.query.relation, spec.query.direction);

  // Exact squared distances of every entity through the blocked kernel
  // (one pass; both the d_min scan and the ball scan read from it).
  const size_t n = store_->num_entities();
  std::vector<double> d2(n);
  embedding::BatchL2DistanceSquared(q_s1, *store_, /*first=*/0, n,
                                    d2.data());
  double d_min = -1.0;
  for (uint32_t e = 0; e < n; ++e) {
    if (exclusion.Contains(e)) continue;
    double d = std::sqrt(d2[e]);
    if (d_min < 0 || d < d_min) d_min = d;
  }
  if (d_min < 0) return AggregateResult{};
  ProbabilityModel pm(d_min);
  const double r_tau = pm.RadiusForThreshold(spec.prob_threshold);

  std::vector<BallPoint> accessed;
  for (uint32_t e = 0; e < n; ++e) {
    if (exclusion.Contains(e)) continue;
    double d = std::sqrt(d2[e]);
    if (d > r_tau) continue;
    double value = value_of(e);
    if (spec.kind != AggKind::kCount && std::isnan(value)) continue;
    accessed.push_back({e, d, pm.ProbabilityAt(d)});
  }
  std::sort(accessed.begin(), accessed.end(),
            [](const BallPoint& a, const BallPoint& b) {
              return a.dist < b.dist;
            });
  return Estimate(spec, accessed, /*unaccessed_mass=*/0.0,
                  /*unaccessed_count=*/0.0);
}

util::Result<AggregateResult> AggregateEngine::Estimate(
    const AggregateSpec& spec, std::span<const BallPoint> accessed,
    double unaccessed_mass, double unaccessed_count) const {
  AggregateResult result;
  result.accessed = accessed.size();
  result.estimated_total =
      static_cast<double>(accessed.size()) + unaccessed_count;

  double sum_a_p = 0.0;
  for (const BallPoint& bp : accessed) sum_a_p += bp.prob;
  const double sum_b_p = sum_a_p + unaccessed_mass;
  result.prob_mass_accessed = sum_a_p;
  result.prob_mass_estimated = sum_b_p;

  // Collect values in access (distance) order for Theorem 4 reporting.
  result.sample_values.reserve(accessed.size());
  std::vector<std::pair<double, double>> value_prob;  // (v_i, p_i)
  value_prob.reserve(accessed.size());
  const RecordValues value_of(*graph_, spec);
  for (const BallPoint& bp : accessed) {
    double v = value_of(bp.id);
    result.sample_values.push_back(v);
    value_prob.emplace_back(v, bp.prob);
  }

  if (accessed.empty() || sum_a_p <= 0.0) {
    result.value = 0.0;
    return result;
  }

  switch (spec.kind) {
    case AggKind::kCount:
      // SUM(1) scaled: equals the estimated total probability mass.
      result.value = sum_b_p;
      break;
    case AggKind::kSum: {
      double weighted = 0.0;
      for (const auto& [v, p] : value_prob) weighted += v * p;
      result.value = weighted * (sum_b_p / sum_a_p);  // Equation (3)
      break;
    }
    case AggKind::kAvg: {
      double weighted = 0.0;
      for (const auto& [v, p] : value_prob) weighted += v * p;
      // E[SUM]/E[COUNT]: the scale factor cancels.
      result.value = weighted / sum_a_p;
      break;
    }
    case AggKind::kMax:
    case AggKind::kMin: {
      // Equation (4), applied to negated values for MIN.
      const double sign = spec.kind == AggKind::kMax ? 1.0 : -1.0;
      std::vector<std::pair<double, double>> vp = value_prob;
      for (auto& [v, p] : vp) v *= sign;
      std::sort(vp.begin(), vp.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      double expected_sample_max = 0.0;
      double none_better = 1.0;  // prod (1 - p_j) over larger values
      for (const auto& [v, p] : vp) {
        expected_sample_max += v * none_better * p;
        none_better *= (1.0 - p);
      }
      double min_v = vp.back().first;
      double estimate = (expected_sample_max - min_v) *
                            (1.0 + 1.0 / sum_a_p) +
                        min_v;
      result.value = sign * estimate;
      break;
    }
  }
  return result;
}

}  // namespace vkg::query
