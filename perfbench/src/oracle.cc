#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <thread>
#include <utility>

namespace perfbench {

Oracle::Oracle(size_t num_entities, size_t dim,
               std::span<const float> entities,
               std::span<const float> relations,
               const std::vector<kg::Triple>& triples,
               std::map<std::string, std::vector<double>> attributes)
    : num_entities_(num_entities),
      dim_(dim),
      entities_(entities.begin(), entities.end()),
      relations_(relations.begin(), relations.end()),
      attributes_(std::move(attributes)) {
  for (const kg::Triple& t : triples) {
    tails_of_[Key(t.head, t.relation)].push_back(t.tail);
    heads_of_[Key(t.tail, t.relation)].push_back(t.head);
  }
}

Oracle Oracle::FromDataset(const data::Dataset& ds) {
  const auto& store = ds.embeddings;
  const size_t dim = store.dim();
  std::vector<float> entities(store.num_entities() * dim);
  for (size_t e = 0; e < store.num_entities(); ++e) {
    auto v = store.Entity(static_cast<kg::EntityId>(e));
    std::copy(v.begin(), v.end(), entities.begin() + e * dim);
  }
  std::vector<float> relations(store.num_relations() * dim);
  for (size_t r = 0; r < store.num_relations(); ++r) {
    auto v = store.Relation(static_cast<kg::RelationId>(r));
    std::copy(v.begin(), v.end(), relations.begin() + r * dim);
  }
  std::map<std::string, std::vector<double>> attributes;
  for (const std::string& name : ds.graph.attributes().Names()) {
    attributes[name] = **ds.graph.attributes().Get(name);
  }
  return Oracle(store.num_entities(), dim, entities,
                relations, ds.graph.triples().triples(),
                std::move(attributes));
}

void Oracle::SetEntity(uint32_t e, std::span<const float> vector) {
  std::copy(vector.begin(), vector.end(), entities_.begin() + e * dim_);
}

std::vector<double> Oracle::Center(const data::Query& q) const {
  std::vector<double> c(dim_);
  const double* a = &entities_[static_cast<size_t>(q.anchor) * dim_];
  const double* r = &relations_[static_cast<size_t>(q.relation) * dim_];
  const double sign = q.direction == kg::Direction::kTail ? 1.0 : -1.0;
  for (size_t d = 0; d < dim_; ++d) c[d] = a[d] + sign * r[d];
  return c;
}

double Oracle::Distance(uint32_t e, const std::vector<double>& center) const {
  const double* x = &entities_[static_cast<size_t>(e) * dim_];
  // Four partial sums: exact enough in double and lets the compiler
  // keep several multiply-adds in flight.
  double acc[4] = {0, 0, 0, 0};
  size_t d = 0;
  for (; d + 4 <= dim_; d += 4) {
    for (size_t j = 0; j < 4; ++j) {
      const double diff = x[d + j] - center[d + j];
      acc[j] += diff * diff;
    }
  }
  for (; d < dim_; ++d) {
    const double diff = x[d] - center[d];
    acc[0] += diff * diff;
  }
  return std::sqrt((acc[0] + acc[1]) + (acc[2] + acc[3]));
}

const std::vector<uint32_t>* Oracle::Joined(const data::Query& q) const {
  const auto& map =
      q.direction == kg::Direction::kTail ? tails_of_ : heads_of_;
  auto it = map.find(Key(q.anchor, q.relation));
  return it == map.end() ? nullptr : &it->second;
}

bool Oracle::Excluded(const data::Query& q, uint32_t e) const {
  if (e == q.anchor) return true;
  const std::vector<uint32_t>* joined = Joined(q);
  return joined != nullptr &&
         std::find(joined->begin(), joined->end(), e) != joined->end();
}

size_t Oracle::Eligible(const data::Query& q) const {
  size_t excluded = 1;  // the anchor
  if (const std::vector<uint32_t>* joined = Joined(q)) {
    for (uint32_t e : *joined) excluded += e != q.anchor ? 1 : 0;
  }
  return num_entities_ - excluded;
}

std::vector<uint8_t> Oracle::SkipMask(const data::Query& q) const {
  std::vector<uint8_t> skip(num_entities_, 0);
  skip[q.anchor] = 1;
  if (const std::vector<uint32_t>* joined = Joined(q)) {
    for (uint32_t e : *joined) skip[e] = 1;
  }
  return skip;
}

std::vector<OracleHit> Oracle::TopK(const data::Query& q, size_t k) const {
  const std::vector<uint8_t> skip = SkipMask(q);
  const std::vector<double> center = Center(q);
  std::priority_queue<std::pair<double, uint32_t>> best;  // max-heap
  for (uint32_t e = 0; e < num_entities_; ++e) {
    if (skip[e]) continue;
    const double d = Distance(e, center);
    if (best.size() < k) {
      best.emplace(d, e);
    } else if (std::make_pair(d, e) < best.top()) {
      best.pop();
      best.emplace(d, e);
    }
  }
  std::vector<OracleHit> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = {best.top().second, best.top().first};
    best.pop();
  }
  return out;
}

Oracle::AggTruth Oracle::Aggregate(const query::AggregateSpec& spec) const {
  AggTruth truth;
  const bool is_count = spec.kind == query::AggKind::kCount;
  if (!is_count && spec.kind != query::AggKind::kSum &&
      spec.kind != query::AggKind::kAvg) {
    truth.value = std::numeric_limits<double>::quiet_NaN();
    return truth;
  }
  const std::vector<double>* column = nullptr;
  if (!is_count) {
    auto it = attributes_.find(spec.attribute);
    if (it == attributes_.end()) {
      truth.value = std::numeric_limits<double>::quiet_NaN();
      return truth;
    }
    column = &it->second;
  }
  const std::vector<uint8_t> skip = SkipMask(spec.query);
  const std::vector<double> center = Center(spec.query);
  std::vector<double> dist(num_entities_);
  double d_min = std::numeric_limits<double>::infinity();
  for (uint32_t e = 0; e < num_entities_; ++e) {
    dist[e] = Distance(e, center);
    if (!skip[e]) d_min = std::min(d_min, dist[e]);
  }
  // The calibration floors d_min away from zero (a query centre sitting
  // on an entity) so probabilities stay finite.
  d_min = std::max(d_min, 1e-9);
  const double radius = d_min / spec.prob_threshold;
  double sum_p = 0.0;
  double sum_vp = 0.0;
  for (uint32_t e = 0; e < num_entities_; ++e) {
    if (dist[e] > radius || skip[e]) continue;
    const double v = is_count ? 1.0 : (*column)[e];
    if (std::isnan(v)) continue;
    const double p = dist[e] <= d_min ? 1.0 : d_min / dist[e];
    sum_p += p;
    sum_vp += v * p;
    ++truth.ball_size;
  }
  switch (spec.kind) {
    case query::AggKind::kCount:
      truth.value = sum_p;
      break;
    case query::AggKind::kSum:
      truth.value = sum_vp;
      break;
    default:
      truth.value = sum_p > 0.0 ? sum_vp / sum_p : 0.0;
      break;
  }
  return truth;
}

std::pair<double, double> Oracle::AttributeRange(
    const std::string& name) const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  auto it = attributes_.find(name);
  if (it == attributes_.end()) return {lo, hi};
  for (double v : it->second) {
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

std::string CheckTopK(const Oracle& oracle, const data::Query& q, size_t k,
                      std::span<const query::TopKHit> hits,
                      const std::vector<OracleHit>* truth,
                      double* precision) {
  const size_t want = std::min(k, oracle.Eligible(q));
  if (hits.size() != want) {
    return "answer has " + std::to_string(hits.size()) + " hits, expected " +
           std::to_string(want);
  }
  const std::vector<double> center = oracle.Center(q);
  std::vector<double> exact(hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    const query::TopKHit& hit = hits[i];
    if (hit.entity >= oracle.num_entities()) return "hit id out of range";
    if (oracle.Excluded(q, hit.entity)) {
      return "hit " + std::to_string(hit.entity) +
             " is the anchor or already joined to it in E";
    }
    for (size_t j = 0; j < i; ++j) {
      if (hits[j].entity == hit.entity) return "duplicate hit";
    }
    if (i > 0 && hit.distance < hits[i - 1].distance) {
      return "hits not in ascending distance order";
    }
    exact[i] = oracle.Distance(hit.entity, center);
    if (!(std::fabs(hit.distance - exact[i]) <=
          kDistanceRelTol * std::max(exact[i], 1e-3))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "hit %u distance %.9g differs from the oracle's %.9g",
                    hit.entity, hit.distance, exact[i]);
      return buf;
    }
  }
  if (truth != nullptr && precision != nullptr) {
    if (truth->size() != want) return "oracle size mismatch";
    if (want == 0) {
      *precision = 1.0;
      return "";
    }
    // A hit is correct when it is no farther than the oracle's k-th
    // distance, so exact ties at the boundary count either way.
    const double kth = truth->back().distance;
    size_t correct = 0;
    for (double d : exact) correct += d <= kth * (1.0 + 1e-12) ? 1 : 0;
    *precision = static_cast<double>(correct) / static_cast<double>(want);
  }
  return "";
}

TruthTable::TruthTable(const Oracle& oracle,
                       std::span<const data::Query> queries, size_t k,
                       size_t threads) {
  std::vector<data::Query> distinct;
  for (const data::Query& q : queries) {
    if (truth_.emplace(Key(q), std::vector<OracleHit>()).second) {
      distinct.push_back(q);
    }
  }
  threads = std::max<size_t>(1, std::min(threads, distinct.size()));
  std::vector<std::vector<OracleHit>> answers(distinct.size());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < distinct.size(); i += threads) {
        answers[i] = oracle.TopK(distinct[i], k);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (size_t i = 0; i < distinct.size(); ++i) {
    truth_[Key(distinct[i])] = std::move(answers[i]);
  }
}

const std::vector<OracleHit>* TruthTable::Find(const data::Query& q) const {
  auto it = truth_.find(Key(q));
  return it == truth_.end() ? nullptr : &it->second;
}

void TopKChecker::Check(const data::Query& q, size_t k,
                        const query::TopKResult& result,
                        const std::vector<OracleHit>* truth) {
  ++checked_;
  if (!result.quality.exact) {
    report_->Violation("top-k answer degraded although no limit was set");
    return;
  }
  double precision = -1.0;
  const std::string error =
      CheckTopK(*oracle_, q, k, result.hits, truth, &precision);
  if (!error.empty()) {
    report_->Violation("top-k anchor " + std::to_string(q.anchor) +
                       " relation " + std::to_string(q.relation) + ": " +
                       error);
    return;
  }
  if (truth != nullptr) {
    precision_sum_ += precision;
    ++precision_n_;
  }
}

void TopKChecker::Finish(const std::string& label) {
  report_->Note(label + ".answers_checked", static_cast<double>(checked_),
                "count");
  report_->Note(label + ".answers_with_truth",
                static_cast<double>(precision_n_), "count");
  if (precision_n_ == 0) {
    report_->Violation(label + ": no answer was checked against the oracle");
    return;
  }
  const double mean = precision_sum_ / static_cast<double>(precision_n_);
  report_->Note(label + ".precision_at_k", mean, "ratio");
  if (mean < kPrecisionFloor) {
    report_->Violation(label + ": mean precision@k " + std::to_string(mean) +
                       " below the paper's floor 0.97");
  }
}

double AggregateAccuracy(double returned, double truth) {
  if (truth == 0.0) return returned == 0.0 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - std::fabs(returned - truth) / std::fabs(truth));
}

}  // namespace perfbench

namespace perfbench {

std::string CheckAggregate(query::AggKind kind, double value, double truth,
                           std::pair<double, double> range,
                           double* accuracy) {
  if (!std::isfinite(value)) return "aggregate value is not finite";
  if (kind == query::AggKind::kAvg &&
      !(value >= range.first && value <= range.second)) {
    return "AVG " + std::to_string(value) + " outside the attribute range [" +
           std::to_string(range.first) + ", " + std::to_string(range.second) +
           "]";
  }
  *accuracy = AggregateAccuracy(value, truth);
  return "";
}

}  // namespace perfbench
