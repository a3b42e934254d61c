// Self-test of the benchmark's checks: on a tiny hand-built graph with
// known distances the oracle must give the expected answers, and
// deliberately corrupted answers must be rejected — which shows the
// correctness checks of every run can fail.
#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "oracle.h"

namespace perfbench {

namespace {

struct Tally {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "selftest: FAILED: %s\n", what.c_str());
    }
  }
};

// Dimension 2, one relation r = (1, 0), existing edges (e0, r, e1) and
// (e3, r, e4). For the tail query (e0, r) the centre is (1, 0):
//   e0 anchor, e1 joined in E, e3 at 0.5, e2 at 1, e4 at 2, e5 at 3.
// For the head query (e4, r) the centre is e4 - r = (2, 0): e3 (0.5) is
// joined to e4 in E, so the nearest answer is e1 at 1.
Oracle TinyOracle() {
  const std::vector<float> entities = {0, 0,  1, 0,  1, 1,
                                       1.5, 0,  3, 0,  1, -3};
  const std::vector<float> relations = {1, 0};
  const std::vector<kg::Triple> triples = {{0, 0, 1}, {3, 0, 4}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::map<std::string, std::vector<double>> attributes;
  attributes["score"] = {5, nan, 10, 20, 40, nan};
  return Oracle(6, 2, entities, relations, triples, attributes);
}

std::vector<query::TopKHit> Hits(
    std::initializer_list<std::pair<uint32_t, double>> hits) {
  std::vector<query::TopKHit> out;
  for (const auto& [e, d] : hits) out.push_back({e, d, 0.0});
  return out;
}

}  // namespace

bool RunSelfTest() {
  Tally t;
  const Oracle oracle = TinyOracle();
  const data::Query tail{0, 0, kg::Direction::kTail};
  const data::Query head{4, 0, kg::Direction::kHead};

  const std::vector<OracleHit> top = oracle.TopK(tail, 3);
  t.Expect(top.size() == 3 && top[0].entity == 3 && top[1].entity == 2 &&
               top[2].entity == 4,
           "tail top-3 is e3, e2, e4");
  t.Expect(top.size() == 3 && std::fabs(top[0].distance - 0.5) < 1e-12 &&
               std::fabs(top[1].distance - 1.0) < 1e-12 &&
               std::fabs(top[2].distance - 2.0) < 1e-12,
           "tail top-3 distances are 0.5, 1, 2");
  t.Expect(oracle.Eligible(tail) == 4, "tail query has 4 eligible answers");
  const std::vector<OracleHit> head_top = oracle.TopK(head, 1);
  t.Expect(head_top.size() == 1 && head_top[0].entity == 1 &&
               std::fabs(head_top[0].distance - 1.0) < 1e-12,
           "head top-1 skips the E edge (e3, r, e4) and is e1 at 1");

  auto verdict = [&](const std::vector<query::TopKHit>& hits,
                     double* precision) {
    return CheckTopK(oracle, tail, 3, hits, &top, precision);
  };
  double precision = -1.0;
  t.Expect(verdict(Hits({{3, 0.5}, {2, 1.0}, {4, 2.0}}), &precision).empty() &&
               precision == 1.0,
           "the exact answer passes with precision 1");
  t.Expect(!verdict(Hits({{2, 1.0}, {3, 0.5}, {4, 2.0}}), &precision).empty(),
           "swapped hits are rejected");
  t.Expect(!verdict(Hits({{1, 0.0}, {3, 0.5}, {2, 1.0}}), &precision).empty(),
           "a hit already in E is rejected");
  t.Expect(!verdict(Hits({{0, 1.0}, {3, 0.5}, {2, 1.0}}), &precision).empty(),
           "the anchor as a hit is rejected");
  t.Expect(!verdict(Hits({{3, 0.6}, {2, 1.0}, {4, 2.0}}), &precision).empty(),
           "a wrong distance is rejected");
  t.Expect(!verdict(Hits({{3, 0.5}, {3, 0.5}, {2, 1.0}}), &precision).empty(),
           "a duplicate hit is rejected");
  t.Expect(!verdict(Hits({{3, 0.5}, {2, 1.0}}), &precision).empty(),
           "a short answer is rejected");
  t.Expect(verdict(Hits({{3, 0.5}, {2, 1.0}, {5, 3.0}}), &precision).empty() &&
               std::fabs(precision - 2.0 / 3.0) < 1e-12,
           "a valid but inexact answer scores precision 2/3");

  // p = d_min / d with d_min = 0.5; p_tau = 0.25 gives the ball d <= 2:
  // e3 (p 1, score 20), e2 (p 0.5, score 10), e4 (p 0.25, score 40).
  query::AggregateSpec spec;
  spec.query = tail;
  spec.kind = query::AggKind::kCount;
  spec.prob_threshold = 0.25;
  const Oracle::AggTruth count = oracle.Aggregate(spec);
  t.Expect(std::fabs(count.value - 1.75) < 1e-12 && count.ball_size == 3,
           "COUNT is the ball's probability mass 1.75");
  spec.kind = query::AggKind::kAvg;
  spec.attribute = "score";
  const Oracle::AggTruth avg = oracle.Aggregate(spec);
  t.Expect(std::fabs(avg.value - 20.0) < 1e-12,
           "AVG is sum(v p) / sum(p) = 35 / 1.75 = 20");
  double accuracy = -1.0;
  const auto range = oracle.AttributeRange("score");
  t.Expect(range.first == 5 && range.second == 40, "attribute range [5, 40]");
  t.Expect(CheckAggregate(query::AggKind::kAvg, 20.0, avg.value, range,
                          &accuracy)
                   .empty() &&
               accuracy == 1.0,
           "the exact AVG passes with accuracy 1");
  t.Expect(!CheckAggregate(query::AggKind::kAvg, 50.0, avg.value, range,
                           &accuracy)
                .empty(),
           "an AVG outside the attribute range is rejected");
  t.Expect(CheckAggregate(query::AggKind::kCount, 1.4, count.value, range,
                          &accuracy)
                   .empty() &&
               std::fabs(accuracy - 0.8) < 1e-12,
           "a COUNT 20% off scores accuracy 0.8");
  return t.failures == 0;
}

}  // namespace perfbench
