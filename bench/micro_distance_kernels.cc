// Microbenchmark of the batched execution layer:
//   (1) scalar one-pair L2 kernel vs. the blocked/gather kernels of
//       embedding/batch_kernels.h, over 100k entities x 100 dims —
//       every runnable kernel variant (portable/avx2/avx512/neon) is
//       timed over the store's row-major rows, and the process-wide
//       dispatch pick is recorded in the JSON context;
//   (2) single-thread sequential TopKQuery vs. BatchTopK over a
//       1/2/4/8 worker-thread ladder (capped at the core count so
//       scaling_valid stays true) on the LinearScan engine.
// Emits human-readable tables plus BENCH_kernels.json (see
// WriteBenchJson) so future PRs have a perf trajectory to diff against;
// tools/bench_check.py gates the dispatched_over_portable record.
//
// Env knobs: VKG_BENCH_SCALE scales the entity count; VKG_BENCH_REPS
// overrides the kernel repetition count; VKG_KERNEL forces the
// dispatched variant.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench_common.h"
#include "embedding/batch_kernels.h"
#include "embedding/store.h"
#include "embedding/vector_ops.h"
#include "kg/graph.h"
#include "query/batch_executor.h"
#include "query/topk_engine.h"
#include "util/cpu.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace vkg::bench {
namespace {

constexpr size_t kDim = 100;

// Best-of-reps wall time in milliseconds.
template <typename Fn>
double BestMillis(size_t reps, Fn&& fn) {
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    util::WallTimer timer;
    fn();
    double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

int Run() {
  const size_t n = Scaled(100000, 10000);
  const size_t reps = EnvCount("VKG_BENCH_REPS", 5);
  util::Rng rng(7);

  embedding::EmbeddingStore store(n, /*num_relations=*/4, kDim);
  store.RandomInitialize(rng);
  std::vector<float> q(kDim);
  for (float& v : q) v = static_cast<float>(rng.Uniform(-1.0, 1.0));

  std::vector<BenchRecord> records;
  std::vector<std::pair<std::string, double>> context = {
      {"num_entities", static_cast<double>(n)},
      {"dim", static_cast<double>(kDim)},
      {"hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"scale_factor", ScaleFactor()},
  };

  // ---- (1) kernel throughput: every runnable variant ------------------
  const std::vector<embedding::KernelVariant> variants =
      embedding::RunnableKernelVariants();
  const std::string dispatched(embedding::DispatchedKernelName());

  std::vector<double> out_scalar(n), out_blocked(n), out_gather(n);
  std::vector<double> out_variant(n);
  volatile double sink = 0.0;  // defeat dead-code elimination

  double scalar_ms = BestMillis(reps, [&] {
    for (size_t e = 0; e < n; ++e) {
      out_scalar[e] = embedding::L2DistanceSquared(
          store.Entity(static_cast<uint32_t>(e)), q);
    }
    sink = sink + out_scalar[n - 1];
  });
  double blocked_ms = BestMillis(reps, [&] {
    embedding::BatchL2DistanceSquared(q, store, 0, n, out_blocked.data());
    sink = sink + out_blocked[n - 1];
  });

  double rowmajor_portable_ms = 0.0;
  double rowmajor_dispatched_ms = 0.0;
  std::vector<std::pair<std::string, double>> rowmajor_ms;
  const float* rows = store.Entity(0).data();
  for (embedding::KernelVariant v : variants) {
    const std::string name(embedding::KernelVariantName(v));
    double ms = BestMillis(reps, [&] {
      embedding::BatchL2DistanceSquaredVariant(v, q, rows, n,
                                               out_variant.data());
      sink = sink + out_variant[n - 1];
    });
    rowmajor_ms.emplace_back(name, ms);
    if (v == embedding::KernelVariant::kPortable) rowmajor_portable_ms = ms;
    if (name == dispatched) rowmajor_dispatched_ms = ms;
    // Cross-variant bit-identity is the kernel contract; a bench over
    // disagreeing kernels would be comparing different functions.
    if (std::memcmp(out_variant.data(), out_blocked.data(),
                    n * sizeof(double)) != 0) {
      std::fprintf(stderr, "FATAL: variant %s disagrees with dispatch\n",
                   name.c_str());
      return 1;
    }
  }

  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  // Shuffle so the gather path sees a non-sequential access pattern, as
  // the Algorithm 3 re-rank does.
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.UniformInt(0, static_cast<int64_t>(i))]);
  }
  double gather_ms = BestMillis(reps, [&] {
    embedding::GatherL2DistanceSquared(q, store, ids, out_gather.data());
    sink = sink + out_gather[n - 1];
  });

  // Parity guards: the bench is meaningless if the kernels disagree.
  // Blocked and gather share one per-row function, so they must agree
  // bit-for-bit; the scalar kernel sums in a different association and
  // may differ in the last few ulps.
  for (size_t e = 0; e < n; ++e) {
    double rel = std::abs(out_scalar[e] - out_blocked[e]) /
                 std::max(out_scalar[e], 1e-30);
    if (rel > 1e-12) {
      std::fprintf(stderr, "FATAL: blocked kernel mismatch at row %zu\n", e);
      return 1;
    }
    if (out_gather[e] != out_blocked[ids[e]]) {
      std::fprintf(stderr, "FATAL: gather kernel mismatch at row %zu\n", e);
      return 1;
    }
  }

  const double pair_evals = static_cast<double>(n);
  const double speedup = scalar_ms / blocked_ms;
  // The ratio CI gates: the variant every batch in this process runs
  // vs. the portable kernel, both over the same row-major rows.
  const double dispatched_over_portable =
      rowmajor_portable_ms / rowmajor_dispatched_ms;
  PrintTitle("distance kernels (" + std::to_string(n) + " x " +
             std::to_string(kDim) + ", best of " + std::to_string(reps) +
             ", dispatch=" + dispatched + ")");
  std::vector<int> w{22, 12, 16};
  PrintRow({"kernel", "ms", "Mpairs/s"}, w);
  auto rate = [&](double ms) { return pair_evals / ms / 1e3; };
  PrintRow({"scalar", util::StrFormat("%.3f", scalar_ms),
            util::StrFormat("%.1f", rate(scalar_ms))}, w);
  PrintRow({"blocked", util::StrFormat("%.3f", blocked_ms),
            util::StrFormat("%.1f", rate(blocked_ms))}, w);
  for (const auto& [name, ms] : rowmajor_ms) {
    PrintRow({"rowmajor:" + name, util::StrFormat("%.3f", ms),
              util::StrFormat("%.1f", rate(ms))}, w);
  }
  PrintRow({"gather(shuffled)", util::StrFormat("%.3f", gather_ms),
            util::StrFormat("%.1f", rate(gather_ms))}, w);
  std::printf("blocked vs scalar speedup: %.2fx\n", speedup);
  std::printf("rowmajor(%s) vs rowmajor(portable): %.2fx\n",
              dispatched.c_str(), dispatched_over_portable);

  records.push_back({"scalar_kernel_ms", scalar_ms, "ms"});
  records.push_back({"blocked_kernel_ms", blocked_ms, "ms"});
  records.push_back({"gather_kernel_ms", gather_ms, "ms"});
  records.push_back({"blocked_vs_scalar_speedup", speedup, "x"});
  for (const auto& [name, ms] : rowmajor_ms) {
    records.push_back({"rowmajor_" + name + "_ms", ms, "ms"});
  }
  records.push_back(
      {"dispatched_over_portable", dispatched_over_portable, "x"});

  // ---- (2) BatchTopK scaling on the LinearScan engine ------------------
  // A graph with entities but no edges: the E'-only exclusion holds only
  // the anchor, so every query scans all n entities — the pure
  // candidate-evaluation throughput the batching layer targets.
  kg::KnowledgeGraph graph;
  graph.AddEntities(n, "entity");
  graph.AddRelation("rel");
  query::LinearTopKEngine engine(&graph, &store);

  const size_t num_queries = EnvCount("VKG_BENCH_QUERIES", 32);
  std::vector<data::Query> queries(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries[i].anchor = static_cast<kg::EntityId>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    queries[i].relation = 0;
    queries[i].direction =
        (i % 2 == 0) ? kg::Direction::kTail : kg::Direction::kHead;
  }

  PrintTitle("BatchTopK scaling, LinearScan engine (" +
             std::to_string(num_queries) + " queries, k=10)");
  std::vector<int> w2{12, 12, 12};
  PrintRow({"threads", "ms", "qps"}, w2);
  // Cap the ladder at the core count: an oversubscribed rung measures
  // scheduler churn, not scaling, and would force scaling_valid false
  // for the whole document.
  const size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  double single_ms = 0.0;
  size_t max_threads = 1;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (threads > cores) break;
    util::ThreadPool pool(threads);
    // Warm-up run, then best-of-3.
    (void)query::BatchTopK(engine, queries, /*k=*/10, &pool);
    double ms = BestMillis(3, [&] {
      auto results = query::BatchTopK(engine, queries, /*k=*/10, &pool);
      sink = sink + results.back()->hits.front().distance;
    });
    if (threads == 1) single_ms = ms;
    max_threads = threads;
    double qps = static_cast<double>(num_queries) / (ms / 1e3);
    PrintRow({std::to_string(threads), util::StrFormat("%.2f", ms),
              util::StrFormat("%.0f", qps)}, w2);
    records.push_back({"batch_topk_" + std::to_string(threads) + "t_ms",
                       ms, "ms"});
    records.push_back({"batch_topk_" + std::to_string(threads) + "t_qps",
                       qps, "qps"});
    if (threads == 8) {
      double scaling = single_ms / ms;
      std::printf("1 -> 8 thread scaling: %.2fx\n", scaling);
      records.push_back({"batch_topk_8t_vs_1t_scaling", scaling, "x"});
    }
  }

  WriteBenchJson("BENCH_kernels.json", "micro_distance_kernels", context,
                 records, max_threads,
                 {{"kernel_dispatch", dispatched},
                  {"cpu_features", util::CpuFeatureString()}});
  return 0;
}

}  // namespace
}  // namespace vkg::bench

int main() { return vkg::bench::Run(); }
