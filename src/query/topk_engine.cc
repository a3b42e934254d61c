#include "query/topk_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "embedding/batch_kernels.h"
#include "embedding/vector_ops.h"
#include "obs/metrics.h"
#include "query/prob_model.h"
#include "util/check.h"

namespace vkg::query {

namespace {

// Registry handles shared by every top-k engine (cached once; see
// DESIGN.md §6e).
struct TopKMetrics {
  obs::Counter& queries;
  obs::Counter& degraded;
  obs::Counter& candidates;
  obs::Histogram& latency_us;

  static TopKMetrics& Get() {
    static TopKMetrics* metrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new TopKMetrics{
          reg.GetCounter("vkg_topk_queries_total"),
          reg.GetCounter("vkg_topk_degraded_total"),
          reg.GetCounter("vkg_topk_candidates_total"),
          reg.GetHistogram("vkg_topk_latency_us")};
    }();
    return *metrics;
  }

  void Record(const TopKResult& result) {
    queries.Inc();
    candidates.Inc(result.candidates_examined);
    if (!result.quality.exact) degraded.Inc();
  }
};

// Builds a TopKResult from (distance, id) pairs sorted ascending,
// attaching calibrated probabilities.
TopKResult FinalizeHits(std::vector<std::pair<double, uint32_t>> pairs,
                        size_t candidates_examined) {
  TopKResult result;
  result.candidates_examined = candidates_examined;
  if (pairs.empty()) return result;
  ProbabilityModel pm(pairs[0].first);
  result.hits.reserve(pairs.size());
  for (const auto& [dist, id] : pairs) {
    result.hits.push_back({id, dist, pm.ProbabilityAt(dist)});
  }
  return result;
}

}  // namespace

util::Status ValidateQuery(const kg::KnowledgeGraph* graph,
                           const data::Query& query) {
  if (graph == nullptr) return util::Status::OK();
  if (query.anchor >= graph->num_entities()) {
    return util::Status::InvalidArgument(
        "query anchor is not an entity of the graph");
  }
  if (query.relation >= graph->num_relations()) {
    return util::Status::InvalidArgument(
        "query relation is not a relation of the graph");
  }
  return util::Status::OK();
}

// ---------------------------------------------------------------------------
// LinearTopKEngine
// ---------------------------------------------------------------------------

TopKResult LinearTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& ctx) const {
  obs::ScopedLatencyUs latency(TopKMetrics::Get().latency_us);
  obs::Span span(ctx.trace(), "topk.linear");
  util::QueryControl& control = ctx.control();
  util::Arena& arena = ctx.arena();
  arena.Reset();
  std::span<float> q = arena.AllocateSpan<float>(store_->dim());
  store_->QueryCenterInto(query.anchor, query.relation, query.direction, q);
  const Exclusion exclusion(*graph_, query);
  auto excluded = [&](uint32_t e) { return exclusion.Contains(e); };
  const size_t points_before = control.points();
  auto pairs = scan_.TopK(q, k, excluded, &control);
  TopKResult result =
      FinalizeHits(std::move(pairs), control.points() - points_before);
  if (control.stopped()) {
    // Best-effort: the scan wound down at a block boundary. The scan
    // order carries no spatial meaning, so nothing is certified.
    result.quality.exact = false;
    result.quality.stop_reason = control.stop_reason();
    span.SetAttr("stop_reason",
                 util::StopReasonName(result.quality.stop_reason));
  }
  span.SetAttr("candidates",
               static_cast<double>(result.candidates_examined));
  TopKMetrics::Get().Record(result);
  return result;
}

// ---------------------------------------------------------------------------
// RTreeTopKEngine (Algorithm 3)
// ---------------------------------------------------------------------------

RTreeTopKEngine::RTreeTopKEngine(const kg::KnowledgeGraph* graph,
                                 const embedding::EmbeddingStore* store,
                                 const transform::JlTransform* jl,
                                 index::CrackingRTree* tree, double eps,
                                 bool crack_after_query,
                                 std::string_view name)
    : graph_(graph),
      store_(store),
      jl_(jl),
      tree_(tree),
      eps_(eps),
      crack_after_query_(crack_after_query),
      name_(name) {
  VKG_CHECK(eps > 0);
}

void RTreeTopKEngine::SeedCandidates(
    const index::Node& element, const index::Point& q_s2, size_t k,
    const uint32_t* visit_stamp, uint32_t stamp,
    util::ArenaVector<uint32_t>& seeds) const {
  // Traverse the element's points outward from q along sort order 0
  // (increasing |coord0 - q0|), as described for line 2 of Algorithm 3.
  std::span<const uint32_t> ids = tree_->ElementIds(element, /*s=*/0);
  const index::PointSet& points = tree_->points();
  const float q0 = q_s2.c[0];
  size_t pos = static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), q0,
                       [&points](uint32_t id, float v) {
                         return points.coord(id, 0) < v;
                       }) -
      ids.begin());

  seeds.reserve(k);
  size_t left = pos;   // next candidate on the left is ids[left - 1]
  size_t right = pos;  // next candidate on the right is ids[right]
  while (seeds.size() < k && (left > 0 || right < ids.size())) {
    bool take_left;
    if (left == 0) {
      take_left = false;
    } else if (right == ids.size()) {
      take_left = true;
    } else {
      take_left = (q0 - points.coord(ids[left - 1], 0)) <=
                  (points.coord(ids[right], 0) - q0);
    }
    uint32_t id = take_left ? ids[--left] : ids[right++];
    if (visit_stamp[id] != stamp) seeds.push_back(id);
  }
}

TopKResult RTreeTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                      QueryContext& ctx) const {
  obs::ScopedLatencyUs latency(TopKMetrics::Get().latency_us);
  obs::Trace* trace = ctx.trace();
  obs::Span span(trace, "topk.rtree");
  span.SetAttr("k", static_cast<double>(k));
  util::QueryControl& control = ctx.control();
  util::Arena& arena = ctx.arena();
  arena.Reset();
  std::span<float> q_s1 = arena.AllocateSpan<float>(store_->dim());
  store_->QueryCenterInto(query.anchor, query.relation, query.direction, q_s1);
  index::Point q_s2 = [&] {
    obs::Span jl_span(trace, "jl.project");
    std::span<float> q_alpha = arena.AllocateSpan<float>(jl_->output_dim());
    jl_->Apply(q_s1, q_alpha);
    return index::Point::FromSpan(q_alpha);
  }();

  if (store_->num_entities() == 0 || k == 0) return {};
  // May flag the query stopped (scratch budget): the seeds below are
  // still examined, so even then the answer is non-empty.
  const auto [visit_stamp, stamp] = ctx.BeginQuery(store_->num_entities());
  // The E'-only exclusions are stamped as already visited, so the seed
  // walk and the re-rank filter test one stamp per candidate.
  const Exclusion exclusion(*graph_, query);
  exclusion.StampInto({visit_stamp, store_->num_entities()}, stamp);

  size_t candidates = 0;
  // Max-heap of the best k (S1 squared distance, id); its backing
  // vector lives in the query arena like all scratch below.
  using Best = std::pair<double, uint32_t>;
  util::ArenaVector<Best> best_store{util::ArenaAllocator<Best>(&arena)};
  best_store.reserve(k + 1);
  std::priority_queue<Best, util::ArenaVector<Best>> best(
      std::less<Best>(), std::move(best_store));
  constexpr size_t kExamineBlock = 256;
  std::span<uint32_t> cand = arena.AllocateSpan<uint32_t>(kExamineBlock);
  std::span<double> dist = arena.AllocateSpan<double>(kExamineBlock);
  // Exact S1 re-rank of a candidate batch: filter already-seen/excluded
  // ids, evaluate the survivors through the gather kernel, then fold
  // them into the heap in order (identical results to one-at-a-time).
  // Candidates are processed in blocks so a deadline / budget trip is
  // observed mid-element; the seed batch runs unchecked (enforce ==
  // false) so every query — even one that starts already expired —
  // returns a non-empty best-effort answer.
  auto examine = [&](std::span<const uint32_t> ids, bool enforce) {
    for (size_t base = 0; base < ids.size(); base += kExamineBlock) {
      if (enforce && control.ShouldStop()) return;
      const size_t len = std::min(kExamineBlock, ids.size() - base);
      size_t cnt = 0;
      for (uint32_t id : ids.subspan(base, len)) {
        if (visit_stamp[id] == stamp) continue;
        visit_stamp[id] = stamp;
        cand[cnt++] = id;
      }
      embedding::GatherL2DistanceSquared(q_s1, *store_, cand.first(cnt),
                                         dist.data());
      candidates += cnt;
      control.AddPoints(cnt);
      for (size_t i = 0; i < cnt; ++i) {
        const double d2 = dist[i];
        if (best.size() < k) {
          best.emplace(d2, cand[i]);
        } else if (d2 < best.top().first) {
          best.pop();
          best.emplace(d2, cand[i]);
        }
      }
    }
  };

  // Current S2 query radius; infinite until k candidates exist.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto current_radius = [&]() {
    if (best.size() < k) return kInf;
    return std::sqrt(best.top().first) * (1.0 + eps_);
  };

  double r_q = kInf;
  double certified = 0.0;
  double root_margin = 0.0;
  bool complete = true;
  {
    // The whole read phase — probe, seeding, frontier traversal — runs
    // under one epoch pin (no locks, DESIGN.md §6f): the Node pointers
    // and ElementIds() spans below reference immutable version nodes,
    // and the pin keeps them allocated even after concurrent cracks
    // publish newer versions. The root is captured once so the frontier
    // traverses a single consistent version.
    index::CrackingRTree::ReadPin pin = tree_->PinForRead();
    const index::Node& tree_root = tree_->root();
    root_margin = tree_root.mbr.Margin();

    // Lines 1-3: probe for the element containing q and seed N_q, giving
    // the initial radius r_q = r_k*(N_q) (1 + eps).
    const index::Node* element = [&] {
      obs::Span probe_span(trace, "probe");
      return tree_->ProbeSmallest(q_s2.AsSpan());
    }();
    {
      obs::Span seed_span(trace, "seed");
      util::ArenaVector<uint32_t> seeds{
          util::ArenaAllocator<uint32_t>(&arena)};
      SeedCandidates(*element, q_s2, k, visit_stamp, stamp, seeds);
      seed_span.SetAttr("seeds", static_cast<double>(seeds.size()));
      examine({seeds.data(), seeds.size()}, /*enforce=*/false);
    }

    // Lines 4-8: iteratively shrink Q while examining its points. The
    // contour is traversed best-first by MBR distance to q; every point
    // examined can tighten r_k* and hence Q, so elements that fall outside
    // the refined region are never touched — the paper's "iteratively
    // reduce the query rectangle region until all points in Q have been
    // examined".
    //
    // Pops come off the frontier in non-decreasing MBR distance, so when
    // the query stops early every point strictly closer than the last pop
    // has been examined: that distance is the certified radius within
    // which the Theorem 2/3 guarantees still hold.
    r_q = current_radius();
    obs::Span frontier_span(trace, "frontier");
    size_t frontier_pops = 0;
    using Frontier = std::pair<double, const index::Node*>;  // (mindist, node)
    util::ArenaVector<Frontier> frontier_store{
        util::ArenaAllocator<Frontier>(&arena)};
    frontier_store.reserve(64);
    std::priority_queue<Frontier, util::ArenaVector<Frontier>, std::greater<>>
        frontier(std::greater<>(), std::move(frontier_store));
    frontier.emplace(tree_root.mbr.MinDistSquared(q_s2.AsSpan()),
                     &tree_root);
    while (!frontier.empty()) {
      ++frontier_pops;
      // An empty heap means nothing has been answered yet (the seed
      // element held only excluded entities): keep examining unchecked
      // until one candidate exists, so even an already-expired query
      // returns a non-empty best-effort answer.
      const bool must_progress = best.empty();
      if (!must_progress && control.ShouldStop()) {
        complete = false;
        break;
      }
      auto [d2, node] = frontier.top();
      frontier.pop();
      const double mindist = std::sqrt(d2);
      if (mindist > r_q) break;  // everything left is outside Q
      certified = mindist;
      if (node->kind == index::Node::Kind::kInternal) {
        for (const index::Node* child : node->children) {
          double cd2 = child->mbr.MinDistSquared(q_s2.AsSpan());
          if (std::sqrt(cd2) <= r_q) frontier.emplace(cd2, child);
        }
        continue;
      }
      examine(tree_->ElementIds(*node), /*enforce=*/!must_progress);
      if (!must_progress && control.stopped()) {
        complete = false;  // bailed mid-element
        break;
      }
      r_q = current_radius();
    }
    frontier_span.SetAttr("pops", static_cast<double>(frontier_pops));
    frontier_span.SetAttr("candidates", static_cast<double>(candidates));
  }
  if (r_q == kInf) {
    // Fewer than k valid entities in the whole dataset.
    r_q = root_margin + 1.0;
  }
  if (complete) certified = r_q;
  index::Rect region = index::Rect::BoundingBoxOfBall(q_s2, r_q);

  ResultQuality quality;
  quality.certified_radius = certified;
  if (control.stopped()) {
    quality.exact = false;
    quality.stop_reason = control.stop_reason();
  }

  // Line 9: incremental index build with the final region. A degraded
  // query skips it — its region underestimates Q, and its time is up —
  // while a healthy query cracks under the remaining crack budget.
  if (crack_after_query_ && !control.stopped()) {
    tree_->Crack(region, &control, trace);
  }

  std::vector<std::pair<double, uint32_t>> pairs;
  pairs.reserve(best.size());
  while (!best.empty()) {
    pairs.emplace_back(std::sqrt(best.top().first), best.top().second);
    best.pop();
  }
  std::reverse(pairs.begin(), pairs.end());
  TopKResult result = FinalizeHits(std::move(pairs), candidates);
  result.quality = quality;
  span.SetAttr("radius", r_q);
  span.SetAttr("certified_radius", certified);
  span.SetAttr("candidates", static_cast<double>(candidates));
  if (!quality.exact) {
    span.SetAttr("stop_reason", util::StopReasonName(quality.stop_reason));
  }
  TopKMetrics::Get().Record(result);
  return result;
}

// ---------------------------------------------------------------------------
// PhTreeTopKEngine
// ---------------------------------------------------------------------------

TopKResult PhTreeTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& /*ctx*/) const {
  std::vector<float> q =
      store_->QueryCenter(query.anchor, query.relation, query.direction);
  const Exclusion exclusion(*graph_, query);
  auto excluded = [&](uint32_t e) { return exclusion.Contains(e); };
  auto pairs = tree_->TopK(q, k, excluded);
  return FinalizeHits(std::move(pairs), store_->num_entities());
}

// ---------------------------------------------------------------------------
// H2AlshTopKEngine
// ---------------------------------------------------------------------------

H2AlshTopKEngine::H2AlshTopKEngine(const kg::KnowledgeGraph* graph,
                                   const embedding::EmbeddingStore* store,
                                   const index::H2AlshConfig& config)
    : graph_(graph), store_(store) {
  // Augment items to reduce L2-NN to MIPS: x' = [x ; ||x||^2].
  const size_t n = store->num_entities();
  const size_t d = store->dim();
  std::vector<float> augmented(n * (d + 1));
  for (size_t e = 0; e < n; ++e) {
    std::span<const float> x = store->Entity(static_cast<kg::EntityId>(e));
    double norm2 = 0.0;
    for (size_t i = 0; i < d; ++i) {
      augmented[e * (d + 1) + i] = x[i];
      norm2 += static_cast<double>(x[i]) * x[i];
    }
    augmented[e * (d + 1) + d] = static_cast<float>(norm2);
  }
  alsh_ = std::make_unique<index::H2Alsh>(augmented, n, d + 1, config);
}

TopKResult H2AlshTopKEngine::TopKQuery(const data::Query& query, size_t k,
                                       QueryContext& /*ctx*/) const {
  std::vector<float> q =
      store_->QueryCenter(query.anchor, query.relation, query.direction);
  // Query vector [2q ; -1]: the inner product is 2 q·x - ||x||^2 =
  // ||q||^2 - ||q - x||^2, monotone in -distance.
  std::vector<float> qv(q.size() + 1);
  for (size_t i = 0; i < q.size(); ++i) qv[i] = 2.0f * q[i];
  qv[q.size()] = -1.0f;
  double qnorm2 = embedding::Dot(q, q);

  size_t examined = 0;
  const Exclusion exclusion(*graph_, query);
  auto excluded = [&](uint32_t e) { return exclusion.Contains(e); };
  auto scored = alsh_->TopK(qv, k, excluded, &examined);
  std::vector<std::pair<double, uint32_t>> pairs;
  pairs.reserve(scored.size());
  for (const auto& [ip, id] : scored) {
    double d2 = std::max(0.0, qnorm2 - ip);
    pairs.emplace_back(std::sqrt(d2), id);
  }
  std::sort(pairs.begin(), pairs.end());
  return FinalizeHits(std::move(pairs), examined);
}

}  // namespace vkg::query
