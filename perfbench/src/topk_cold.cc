// topk_cold: the paper's own path. Each round builds a fresh facade (an
// uncracked index) and answers a whole Zipf stream of k=10 head/tail
// queries from one caller thread, so the transform, cracking, frontier
// and re-rank kernel do all the work: no server, cache, overlay or
// aggregate is involved. Which keys a stream makes hot decides much of
// its cost, so the rounds cycle through several streams.
#include <algorithm>
#include <thread>
#include <utility>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kK = 10;
constexpr size_t kColdWindow = 64;   // the Fig. 3 window: first queries
constexpr size_t kMinRounds = 3;     // cold_window_ms is a median over rounds

// The aggregate and core layers, which this workload never calls: no
// aggregate, update or compaction runs, so they do no work here and read
// 0 in its traced run. update_mix's traced run measures them.
constexpr std::pair<const char*, const char*> kIdleLayers[] = {
    {"query.agg_us", "us"},
    {"query.agg_contour_us", "us"},
    {"query.agg_accessed", "count"},
    {"query.agg_p50_us", "us"},
    {"query.agg_p99_us", "us"},
    {"core.update_us", "us"},
    {"core.overlay_size_mean", "count"},
    {"core.recrack_window_ms", "ms"},
    {"core.compact_ms", "ms"},
};

}  // namespace

double RunTopKCold(const RunContext& ctx,
                   const std::vector<std::vector<data::Query>>& streams,
                   double seconds, Mode mode) {
  Report& report = *ctx.report;
  std::vector<data::Query> all_queries;
  for (const std::vector<data::Query>& s : streams) {
    all_queries.insert(all_queries.end(), s.begin(), s.end());
  }
  const TruthTable truth(*ctx.oracle, all_queries, kK,
                         std::max(1u, std::thread::hardware_concurrency()));
  TopKChecker checker(ctx.oracle, &report);
  const size_t stream_length = streams.front().size();

  std::vector<double> cold_ms, latency_us, round_rate, setup_s;
  std::vector<vkg::query::TopKResult> results(stream_length);
  std::vector<double> round_us(stream_length);
  double window_s = 0.0;
  size_t rounds = 0;
  double traced_us = 0.0, untraced_us = 0.0, rows = 0.0, traced_ops = 0.0;
  double traced_wall_us = 0.0;  // span times are wall-clock
  double all_rows = 0.0;
  SpanFold fold;
  IndexDeltas deltas;
  IndexSnapshot last;
  while (rounds < kMinRounds || window_s < seconds) {
    // A traced run alternates untraced and traced rounds over the same
    // stream on equally fresh indexes: their difference is the cost of
    // tracing.
    const bool traced = mode == Mode::kTraced && rounds % 2 == 1;
    const std::vector<data::Query>& queries =
        streams[(mode == Mode::kEndToEnd ? rounds : rounds / 2) %
                streams.size()];
    setup_s.push_back(SetupSample(*ctx.dataset));
    double build_s = 0.0;
    std::shared_ptr<Vkg> vkg = BuildFacade(*ctx.dataset, &build_s);
    const IndexSnapshot before = SnapIndex(*vkg);
    vkg::obs::Trace trace;
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const double start = ThreadCpuSeconds();
      if (traced) {
        const Clock::time_point wall_start = Clock::now();
        trace.Clear();
        results[i] = vkg->TopK(queries[i], kK, &trace);
        round_us[i] = (ThreadCpuSeconds() - start) * 1e6;
        traced_wall_us += MicrosSince(wall_start);
        fold.Add(trace);
      } else {
        results[i] = vkg->TopK(queries[i], kK);
        round_us[i] = (ThreadCpuSeconds() - start) * 1e6;
      }
    }
    window_s += SecondsSince(round_start);
    ++rounds;
    // Checks and bookkeeping stay outside the timed loop.
    double round_total = 0.0, cold = 0.0, round_rows = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      round_total += round_us[i];
      if (i < kColdWindow) cold += round_us[i];
      round_rows += static_cast<double>(results[i].candidates_examined);
      checker.Check(queries[i], kK, results[i], truth.Find(queries[i]));
    }
    all_rows += round_rows;
    cold_ms.push_back(cold / 1e3);
    if (traced) {
      traced_us += round_total;
      traced_ops += static_cast<double>(queries.size());
      rows += round_rows;
      last = SnapIndex(*vkg);
      deltas.Add(before, last);
    } else {
      untraced_us += round_total;
      round_rate.push_back(static_cast<double>(queries.size()) /
                           (round_total * 1e-6));
      latency_us.insert(latency_us.end(), round_us.begin(), round_us.end());
      if (mode == Mode::kEndToEnd) last = SnapIndex(*vkg);
    }
  }
  checker.Finish("topk");
  const double ops = static_cast<double>(rounds * stream_length);
  report.Ops("topk", static_cast<uint64_t>(ops), 0);
  report.Note("topk.rounds", static_cast<double>(rounds), "count");
  report.Note("topk.distinct_queries", static_cast<double>(truth.size()),
              "count");
  EndToEnd(report, mode, "setup_s", Median(setup_s), "s");
  EndToEnd(report, mode, "ops_per_s", Median(round_rate), "ops/s");
  EndToEnd(report, mode, "topk_p50_us", Percentile(latency_us, 0.50), "us");
  EndToEnd(report, mode, "topk_p99_us", Percentile(latency_us, 0.99), "us");
  EndToEnd(report, mode, "cold_window_ms", Median(cold_ms), "ms");
  if (mode == Mode::kEndToEnd) {
    report.Note("index_bytes", static_cast<double>(last.stats.node_bytes),
                "bytes");
  } else {
    // Counters are per traced round; every round answers the same
    // stream on a fresh index, so the deltas are averaged over them.
    deltas.Scale(1.0 / static_cast<double>(rounds / 2));
    ReportTopKLayers(fold, traced_ops, rows, last, deltas, report);
    for (const auto& [name, unit] : kIdleLayers) {
      report.Metric(name, 0.0, unit);
    }
    // Equal numbers of queries on each side only when the round count
    // is even; compare mean op times.
    const double untraced_ops = ops - traced_ops;
    ReportTraceCost(traced_us / traced_ops, untraced_us / untraced_ops,
                    fold.RootUs() / traced_wall_us, report);
  }
  return all_rows / ops;
}

}  // namespace perfbench
