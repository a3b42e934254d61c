// update_mix: writes beside reads through the facade from one caller
// thread. Each round builds a fresh facade and plays one of eight fixed
// seeded sequences of top-k reads, sampled AVG and full-ball COUNT aggregates,
// and UpdateEntityEmbedding writes that move entities, with
// CompactUpdates every kUpdatesPerCompaction updates. The overlay scan
// grows top-k cost, each compaction discards the cracked index and pays
// cold cracking again, and the aggregate engine does much of the work.
#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kK = 10;
constexpr size_t kColdWindow = 64;
constexpr size_t kMinRounds = 3;
constexpr size_t kSequences = 8;  // distinct op sequences per run
constexpr size_t kUpdatesPerCompaction = 64;
// Op mix in percent: top-k, sampled AVG, full-ball COUNT, update.
constexpr int kTopKPct = 60;
constexpr int kAvgPct = 12;
constexpr int kCountPct = 8;
// Aggregate shapes: AVG over the p >= 0.05 ball from a 64-record sample
// (Fig. 14's setting); COUNT over the whole p >= 0.5 ball.
constexpr double kAvgThreshold = 0.05;
constexpr size_t kAvgSample = 64;
constexpr double kCountThreshold = 0.5;
// The accuracy floors and tolerance README.md states.
constexpr double kAvgAccuracyFloor = 0.80;
constexpr double kCountAccuracyFloor = 0.95;

enum class OpType { kTopK, kAvg, kCount, kUpdate, kCompact };

struct Op {
  OpType type = OpType::kTopK;
  data::Query query;
  kg::EntityId entity = 0;   // kUpdate
  std::vector<float> vector;  // kUpdate
};

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kTopK:
      return "topk";
    case OpType::kAvg:
      return "agg_avg_sampled";
    case OpType::kCount:
      return "agg_count_full";
    case OpType::kUpdate:
      return "update";
    case OpType::kCompact:
      return "compact";
  }
  return "?";
}

// The fixed op sequence of one round. An update moves an entity onto a
// slightly jittered copy of another entity's original vector, so the
// embedding distribution stays the same however many rounds run.
std::vector<Op> MakeOps(const RunContext& ctx, size_t n, uint64_t seed) {
  const data::Dataset& ds = *ctx.dataset;
  const std::vector<data::Query> reads =
      ZipfQueries(ds, n, Mix(seed ^ 0x51), ctx.relation, 0.5);
  const std::vector<data::Query> anchors =
      ZipfQueries(ds, n, Mix(seed ^ 0x52), ctx.relation, 1.0);
  std::mt19937_64 rng(Mix(seed ^ 0x53));
  std::normal_distribution<float> jitter(0.0f, 0.01f);
  const size_t entities = ds.embeddings.num_entities();
  std::vector<Op> ops;
  size_t updates = 0;
  for (size_t i = 0; i < n; ++i) {
    Op op;
    const int pick = static_cast<int>(rng() % 100);
    if (pick < kTopKPct) {
      op.type = OpType::kTopK;
      op.query = reads[i];
    } else if (pick < kTopKPct + kAvgPct) {
      op.type = OpType::kAvg;
      op.query = anchors[i];
    } else if (pick < kTopKPct + kAvgPct + kCountPct) {
      op.type = OpType::kCount;
      op.query = anchors[i];
    } else {
      op.type = OpType::kUpdate;
      op.entity = static_cast<kg::EntityId>(rng() % entities);
      const auto source = ds.embeddings.Entity(
          static_cast<kg::EntityId>(rng() % entities));
      op.vector.assign(source.begin(), source.end());
      for (float& x : op.vector) x += jitter(rng);
    }
    ops.push_back(std::move(op));
    if (ops.back().type == OpType::kUpdate &&
        ++updates % kUpdatesPerCompaction == 0) {
      Op compact;
      compact.type = OpType::kCompact;
      ops.push_back(std::move(compact));
    }
  }
  return ops;
}

vkg::query::AggregateSpec SpecFor(const RunContext& ctx, const Op& op) {
  vkg::query::AggregateSpec spec;
  spec.query = op.query;
  if (op.type == OpType::kAvg) {
    spec.kind = vkg::query::AggKind::kAvg;
    spec.attribute = ctx.attribute;
    spec.prob_threshold = kAvgThreshold;
    spec.sample_size = kAvgSample;
  } else {
    spec.kind = vkg::query::AggKind::kCount;
    spec.prob_threshold = kCountThreshold;
    spec.sample_size = 0;
  }
  return spec;
}

// Oracle answers for every read of the sequence, computed by replaying
// the sequence's updates on the benchmark's own copy of the embeddings.
struct Truths {
  std::vector<std::vector<OracleHit>> topk;
  std::vector<double> aggregate;
};

Truths ComputeTruths(const RunContext& ctx, const std::vector<Op>& ops) {
  Oracle oracle = *ctx.oracle;
  Truths truths;
  truths.topk.resize(ops.size());
  truths.aggregate.assign(ops.size(), 0.0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.type) {
      case OpType::kTopK:
        truths.topk[i] = oracle.TopK(op.query, kK);
        break;
      case OpType::kAvg:
      case OpType::kCount:
        truths.aggregate[i] = oracle.Aggregate(SpecFor(ctx, op)).value;
        break;
      case OpType::kUpdate:
        oracle.SetEntity(op.entity, op.vector);
        break;
      case OpType::kCompact:
        break;
    }
  }
  return truths;
}

}  // namespace

double RunUpdateMix(const RunContext& ctx, size_t ops_per_round,
                    double seconds, Mode mode) {
  Report& report = *ctx.report;
  // Several sequences, each with its oracle answers, prepared on a few
  // threads before any timing. Which keys are hot decides much of a
  // sequence's cost, so a run cycles through several of them; a traced
  // run plays each one untraced, then traced.
  std::vector<std::vector<Op>> all_ops(kSequences);
  std::vector<Truths> all_truths(kSequences);
  {
    const size_t threads = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, kSequences);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t q = t; q < kSequences; q += threads) {
          all_ops[q] = MakeOps(ctx, ops_per_round, Mix(ctx.seed ^ Mix(q)));
          all_truths[q] = ComputeTruths(ctx, all_ops[q]);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const std::pair<double, double> attr_range =
      ctx.oracle->AttributeRange(ctx.attribute);

  // Per-op state of the current round, checked after it.
  std::vector<vkg::query::TopKResult> topk;
  std::vector<vkg::util::Result<vkg::query::AggregateResult>> agg;
  std::vector<vkg::util::Status> writes;
  std::vector<double> op_us, overlay;

  Oracle round_oracle = *ctx.oracle;  // for the per-hit distance checks
  TopKChecker checker(&round_oracle, &report);
  std::vector<double> cold_ms, recrack_ms, compact_ms, round_rate, setup_s;
  std::vector<double> topk_us, agg_us, update_us;
  std::vector<double> overlay_sizes, accessed;
  double avg_acc_sum = 0.0, count_acc_sum = 0.0;
  size_t avg_n = 0, count_n = 0;
  uint64_t attempted[5] = {0, 0, 0, 0, 0};
  uint64_t failed[5] = {0, 0, 0, 0, 0};
  double window_s = 0.0;
  size_t rounds = 0;
  double traced_us = 0.0, untraced_us = 0.0, traced_reads = 0.0;
  double untraced_reads = 0.0, rows = 0.0, traced_topk = 0.0;
  double all_rows = 0.0, all_topk = 0.0;
  double traced_wall_us = 0.0;  // span times are wall-clock
  SpanFold fold;
  IndexDeltas deltas;
  IndexSnapshot last;

  while (rounds < kMinRounds || window_s < seconds) {
    const bool traced = mode == Mode::kTraced && rounds % 2 == 1;
    const size_t q =
        (mode == Mode::kEndToEnd ? rounds : rounds / 2) % kSequences;
    const std::vector<Op>& ops = all_ops[q];
    const Truths& truths = all_truths[q];
    topk.assign(ops.size(), {});
    agg.assign(ops.size(), vkg::util::Status::OK());
    writes.assign(ops.size(), vkg::util::Status::OK());
    op_us.assign(ops.size(), 0.0);
    overlay.assign(ops.size(), 0.0);
    setup_s.push_back(SetupSample(*ctx.dataset));
    double build_s = 0.0;
    std::shared_ptr<Vkg> vkg = BuildFacade(*ctx.dataset, &build_s);
    IndexSnapshot segment_start = SnapIndex(*vkg);
    vkg::obs::Trace trace;
    const Clock::time_point round_start = Clock::now();
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      // Only reads carry a trace: writes have no spans.
      const bool read = op.type == OpType::kTopK || op.type == OpType::kAvg ||
                        op.type == OpType::kCount;
      vkg::obs::Trace* t = traced && read ? &trace : nullptr;
      if (t != nullptr) t->Clear();
      overlay[i] = static_cast<double>(vkg->pending_updates());
      const bool compact = op.type == OpType::kCompact;
      // A compaction replaces the index: its counters restart.
      if (traced && compact) deltas.Add(segment_start, SnapIndex(*vkg));
      const Clock::time_point wall_start = Clock::now();
      const double start = ThreadCpuSeconds();
      switch (op.type) {
        case OpType::kTopK:
          topk[i] = vkg->TopK(op.query, kK, t);
          break;
        case OpType::kAvg:
        case OpType::kCount:
          agg[i] = vkg->Aggregate(SpecFor(ctx, op), t);
          break;
        case OpType::kUpdate:
          writes[i] = vkg->UpdateEntityEmbedding(op.entity, op.vector);
          break;
        case OpType::kCompact:
          writes[i] = vkg->CompactUpdates();
          break;
      }
      op_us[i] = (ThreadCpuSeconds() - start) * 1e6;
      if (t != nullptr) {
        traced_wall_us += MicrosSince(wall_start);
        fold.Add(*t);
      }
      if (traced && compact) segment_start = SnapIndex(*vkg);
    }
    window_s += SecondsSince(round_start);
    ++rounds;
    if (traced) {
      last = SnapIndex(*vkg);
      deltas.Add(segment_start, last);
    } else if (mode == Mode::kEndToEnd) {
      last = SnapIndex(*vkg);
    }

    // Bookkeeping and checks, outside the timed loop.
    round_oracle = *ctx.oracle;
    size_t since_fresh = 0, topk_since_compact = 0;
    double cold = 0.0, recrack = 0.0;
    bool after_compact = false;
    double round_reads_us = 0.0, round_reads = 0.0, round_us = 0.0;
    for (size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const int type = static_cast<int>(op.type);
      ++attempted[type];
      round_us += op_us[i];
      if (since_fresh < kColdWindow) {
        cold += op_us[i];
        if (++since_fresh == kColdWindow) cold_ms.push_back(cold / 1e3);
      }
      switch (op.type) {
        case OpType::kTopK: {
          checker.Check(op.query, kK, topk[i], &truths.topk[i]);
          all_rows += static_cast<double>(topk[i].candidates_examined);
          all_topk += 1.0;
          round_reads_us += op_us[i];
          round_reads += 1.0;
          if (traced) {
            rows += static_cast<double>(topk[i].candidates_examined);
            traced_topk += 1.0;
          } else {
            topk_us.push_back(op_us[i]);
          }
          overlay_sizes.push_back(overlay[i]);
          if (after_compact && topk_since_compact < kColdWindow) {
            recrack += op_us[i];
            if (++topk_since_compact == kColdWindow) {
              recrack_ms.push_back(recrack / 1e3);
            }
          }
          break;
        }
        case OpType::kAvg:
        case OpType::kCount: {
          round_reads_us += op_us[i];
          round_reads += 1.0;
          if (!agg[i].ok()) {
            ++failed[type];
            break;
          }
          if (!traced) agg_us.push_back(op_us[i]);
          accessed.push_back(static_cast<double>(agg[i]->accessed));
          double acc = 0.0;
          const std::string error =
              CheckAggregate(SpecFor(ctx, op).kind, agg[i]->value,
                             truths.aggregate[i], attr_range, &acc);
          if (!error.empty()) {
            report.Violation(error);
          } else if (op.type == OpType::kAvg) {
            avg_acc_sum += acc;
            ++avg_n;
          } else {
            count_acc_sum += acc;
            ++count_n;
          }
          break;
        }
        case OpType::kUpdate:
          if (!writes[i].ok()) {
            ++failed[type];
            break;
          }
          round_oracle.SetEntity(op.entity, op.vector);
          update_us.push_back(op_us[i]);
          break;
        case OpType::kCompact:
          if (!writes[i].ok()) {
            ++failed[type];
            break;
          }
          compact_ms.push_back(op_us[i] / 1e3);
          since_fresh = 0;
          cold = 0.0;
          after_compact = true;
          topk_since_compact = 0;
          recrack = 0.0;
          break;
      }
    }
    if (traced) {
      traced_us += round_reads_us;
      traced_reads += round_reads;
    } else {
      untraced_us += round_reads_us;
      untraced_reads += round_reads;
      round_rate.push_back(static_cast<double>(ops.size()) /
                           (round_us * 1e-6));
    }
  }
  checker.Finish("topk");
  const double avg_acc = avg_n > 0 ? avg_acc_sum / avg_n : 0.0;
  const double count_acc = count_n > 0 ? count_acc_sum / count_n : 0.0;
  report.Note("agg_avg.mean_accuracy", avg_acc, "ratio");
  report.Note("agg_count.mean_accuracy", count_acc, "ratio");
  if (avg_n == 0 || avg_acc < kAvgAccuracyFloor) {
    report.Violation("sampled AVG mean accuracy below the README floor");
  }
  if (count_n == 0 || count_acc < kCountAccuracyFloor) {
    report.Violation("full-ball COUNT mean accuracy below the README floor");
  }
  for (int type = 0; type < 5; ++type) {
    report.Ops(OpName(static_cast<OpType>(type)), attempted[type],
               failed[type]);
  }
  report.Note("update_mix.rounds", static_cast<double>(rounds), "count");
  EndToEnd(report, mode, "setup_s", Median(setup_s), "s");
  EndToEnd(report, mode, "ops_per_s", Median(round_rate), "ops/s");
  EndToEnd(report, mode, "topk_p50_us", Percentile(topk_us, 0.50), "us");
  EndToEnd(report, mode, "topk_p99_us", Percentile(topk_us, 0.99), "us");
  EndToEnd(report, mode, "cold_window_ms", Median(cold_ms), "ms");
  if (mode == Mode::kEndToEnd) {
    report.Note("index_bytes", static_cast<double>(last.stats.node_bytes),
                "bytes");
    report.Note("agg_p50_us", Percentile(agg_us, 0.50), "us");
    report.Note("agg_p99_us", Percentile(agg_us, 0.99), "us");
    report.Note("compact_ms", Median(compact_ms), "ms");
    return all_rows / all_topk;
  }
  report.Metric("query.agg_us",
                fold.Count("aggregate") > 0
                    ? fold.SelfUs("aggregate") / fold.Count("aggregate")
                    : 0.0,
                "us");
  report.Metric("query.agg_contour_us",
                fold.Count("agg.contour") > 0
                    ? fold.SelfUs("agg.contour") / fold.Count("agg.contour")
                    : 0.0,
                "us");
  report.Metric("query.agg_accessed", Mean(accessed), "count");
  report.Metric("query.agg_p50_us", Percentile(agg_us, 0.50), "us");
  report.Metric("query.agg_p99_us", Percentile(agg_us, 0.99), "us");
  report.Metric("core.update_us", Mean(update_us), "us");
  report.Metric("core.overlay_size_mean", Mean(overlay_sizes), "count");
  report.Metric("core.recrack_window_ms", Median(recrack_ms), "ms");
  report.Metric("core.compact_ms", Median(compact_ms), "ms");
  deltas.Scale(1.0 / static_cast<double>(rounds / 2));
  ReportTopKLayers(fold, traced_topk, rows, last, deltas, report);
  ReportTraceCost(traced_us / traced_reads, untraced_us / untraced_reads,
                  fold.RootUs() / traced_wall_us, report);
  return all_rows / all_topk;
}

}  // namespace perfbench
